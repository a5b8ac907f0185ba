"""Invariants of the CDCL core's redundant state.

The core keeps truth values twice -- ``_assigns`` per variable and
``_lvals`` per literal -- and compacts each watcher list in place while
propagation walks it.  These tests check both after every ``solve()`` of
seeded streams that go through learnt-DB reduction, arena compaction and
conflicts found in the middle of a watcher list:

* ``_lvals[2v]`` / ``_lvals[2v+1]`` agree with ``_assigns[v]``;
* every live arena clause sits exactly once in the watcher list of the
  negation of each of its first two literals, and in no other list.

A targeted test then builds one watcher list holding dead, moved, kept
and conflicting handles and pins what the conflict leaves behind.
"""

import random
from collections import Counter

import pytest

from repro.sat.literals import UNASSIGNED, from_dimacs, lit
from repro.sat.solver import SatSolver

from .reference_solver import SatSolver as ReferenceSolver
from .test_differential import _assert_in_lockstep


def assert_core_state(solver):
    """Check the ``_lvals`` mirror and the watcher-list layout."""
    lvals = solver._lvals
    assert len(lvals) == 2 * solver.num_vars + 2
    for v in range(1, solver.num_vars + 1):
        a = solver._assigns[v]
        if a == UNASSIGNED:
            expected = (UNASSIGNED, UNASSIGNED)
        else:
            expected = (a, a ^ 1)
        assert (lvals[2 * v], lvals[2 * v + 1]) == expected, (
            f"_lvals disagrees with _assigns at var {v}")
    arena = solver._arena
    live = [h for h in range(len(arena))
            if arena.size[h] >= 0 and not arena.dead[h]]
    assert sorted(live) == sorted(solver._clauses + solver._learnts)
    homes = {h: Counter() for h in live}
    for index, watch_list in enumerate(solver._watches):
        for h in watch_list:
            if h in homes:
                homes[h][index] += 1
    for h in live:
        o = arena.off[h]
        expected = Counter({arena.lits[o] ^ 1: 1, arena.lits[o + 1] ^ 1: 1})
        assert homes[h] == expected, (
            f"clause {h} watched in {dict(homes[h])}, "
            f"expected {dict(expected)}")


def spy_mid_list_conflicts(solver):
    """Count propagation conflicts that left an unvisited watcher tail.

    A conflicting clause keeps the falsified literal ``not_p`` at arena
    slot 1 and stays in ``watches[p]``; anything after it there is the
    tail the propagation loop never reached.
    """
    counts = {"mid_list": 0}
    inner = solver._propagate

    def propagate():
        conflict = inner()
        if conflict is not None:
            arena = solver._arena
            p = arena.lits[arena.off[conflict] + 1] ^ 1
            watch_list = solver._watches[p]
            if watch_list.index(conflict) < len(watch_list) - 1:
                counts["mid_list"] += 1
        return conflict

    solver._propagate = propagate
    return counts


def count_calls(solver, name):
    """Count calls of one of the solver's methods."""
    counts = {"calls": 0}
    inner = getattr(solver, name)

    def counted():
        counts["calls"] += 1
        inner()

    setattr(solver, name, counted)
    return counts


def _squeezing(solver):
    """A ``stop`` predicate that never stops but empties the learnt cap.

    ``stop`` is polled before every decision, just ahead of the
    reduction test, so the search reduces whenever it holds more learnt
    clauses than trail literals.
    """
    def stop():
        solver._max_learnts = 0.0
        return False
    return stop


@pytest.mark.parametrize("seed", range(6))
def test_state_holds_on_incremental_streams(seed):
    """Add/solve episodes under assumptions, reducing all along."""
    rng = random.Random(31_000 + seed)
    num_vars = 120
    s = SatSolver()
    for _ in range(num_vars):
        s.new_var()
    reductions = count_calls(s, "_reduce_db")
    compactions = count_calls(s, "_compact")
    spy = spy_mid_list_conflicts(s)
    for episode in range(12):
        for _ in range(50):
            vs = rng.sample(range(1, num_vars + 1), k=3)
            s.add_clause([lit(v, rng.random() < 0.5) for v in vs])
        assumed = rng.sample(range(1, num_vars + 1), k=rng.randint(0, 4))
        verdict = s.solve([lit(v, rng.random() < 0.5) for v in assumed],
                          stop=_squeezing(s))
        assert verdict is not None
        assert_core_state(s)
        if verdict is False and not s.failed_assumptions:
            break
    assert reductions["calls"] > 0
    assert compactions["calls"] > 0
    assert spy["mid_list"] > 0


def test_state_holds_near_the_phase_transition():
    """Random 3-SAT at ratio ~4.3: conflicts deep in long watcher lists."""
    rng = random.Random(11_000)
    s = SatSolver()
    num_vars = 60
    for _ in range(num_vars):
        s.new_var()
    spy = spy_mid_list_conflicts(s)
    for _ in range(int(num_vars * 4.3)):
        vs = rng.sample(range(1, num_vars + 1), k=3)
        s.add_clause([lit(v, rng.random() < 0.5) for v in vs])
    s.solve()
    assert_core_state(s)
    assert spy["mid_list"] > 0


def test_conflict_mid_list_keeps_the_tail_in_order():
    """Dead and moved handles before the conflict go, the tail stays.

    ``watches[q]`` is laid out as dead, moved, kept, *conflicting*,
    kept, dead, kept.  Asserting ``q`` and ``p`` together and
    propagating ``q`` first hits the conflict at position 3: the two
    handles before it that leave are dropped, the kept one slides down,
    and the unvisited tail -- the dead handle in it included -- follows
    in its original order.  The next solve() then walks the same search
    as the frozen reference solver, which never had the dead clauses.
    """
    d = {name: i + 1 for i, name in enumerate("QPABCDEFG")}
    q = from_dimacs(d["Q"])
    p = from_dimacs(d["P"])

    def clause(*names):
        return [from_dimacs(-d[n[1:]] if n[0] == "-" else d[n])
                for n in names]

    layout = [
        ("dead", clause("-Q", "A", "B")),
        ("moved", clause("-Q", "C", "D")),
        ("kept", clause("-Q", "P")),
        ("conflict", clause("-Q", "-P")),
        ("tail", clause("-Q", "E", "F")),
        ("dead", clause("-Q", "A", "G")),
        ("tail", clause("-Q", "G", "-E")),
    ]
    s, ref = SatSolver(), ReferenceSolver()
    for _ in d:
        s.new_var()
        ref.new_var()
    handles = {}
    order = []
    for role, lits in layout:
        assert s.add_clause(list(lits))
        h = s._clauses[-1]
        handles.setdefault(role, []).append(h)
        order.append(h)
        if role == "dead":
            s._clauses.remove(h)
            s._arena.delete(h)
        else:
            assert ref.add_clause(list(lits))
    before = list(s._watches[q])
    assert before == order
    for solver in (s, ref):
        solver._trail_lim.append(len(solver._trail))
        assert solver._enqueue(q, None) and solver._enqueue(p, None)
    conflict = s._propagate()
    assert ref._propagate() is not None
    assert [conflict] == handles["conflict"]
    tail = order[order.index(conflict) + 1:]
    assert tail == [handles["tail"][0], handles["dead"][1],
                    handles["tail"][1]]
    assert s._watches[q] == handles["kept"] + [conflict] + tail
    arena = s._arena
    assert [arena.literals(h) for h in s._watches[q] if not arena.dead[h]] \
        == [c.lits for c in ref._watches[q]]
    moved = handles["moved"][0]
    assert s._arena.literals(moved) == clause("C", "D", "-Q")
    assert moved in s._watches[from_dimacs(-d["D"])]
    for solver in (s, ref):
        solver.cancel_until(0)
    assert_core_state(s)
    _assert_in_lockstep(s, ref, s.solve(), ref.solve(), "(mid-list conflict)")
    assert_core_state(s)
