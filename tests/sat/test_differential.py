"""Differential tests: the arena solver tracks the pre-arena oracle.

``tests/sat/reference_solver.py`` is a frozen copy of the object-based
CDCL solver as it stood before the flat-array arena rewrite (with the
same two learnt-DB policy fixes applied, so policy and layout changes
are isolated from each other).  Because the rewrite only changed the
clause *storage* — never the search heuristics, propagation order, or
reduction policy — the two solvers must walk literally the same search
tree: identical verdicts, identical models, identical failed-assumption
cores, and identical conflict/decision/propagation/restart counters, on
every input.

The streams below are seeded and deterministic: random 3-ish-CNF
streams, incremental episodes with activation literals standing in for
push/pop scopes, and assumption probes.  The hard instances drive the
pair through restarts and clause-database reductions, so the lazy
watcher deletion and arena compaction paths are exercised, not just the
happy path.
"""

import random

import pytest

from repro.sat.literals import from_dimacs, lit
from repro.sat.solver import SatSolver

from .reference_solver import SatSolver as ReferenceSolver


def _new_pair(num_vars):
    arena, oracle = SatSolver(), ReferenceSolver()
    for _ in range(num_vars):
        arena.new_var()
        oracle.new_var()
    return arena, oracle


def _random_clause(rng, num_vars, max_len=4):
    length = rng.randint(1, max_len)
    return [rng.randint(1, num_vars) * rng.choice((1, -1))
            for _ in range(length)]


_COMPARED_COUNTERS = ("conflicts", "decisions", "propagations", "restarts",
                      "learnts", "max_learnts")


def _assert_in_lockstep(arena, oracle, verdict_a, verdict_o, ctx=""):
    assert verdict_a == verdict_o, f"verdict diverged {ctx}"
    sa, so = arena.statistics, oracle.statistics
    for key in _COMPARED_COUNTERS:
        assert sa[key] == so[key], (
            f"{key} diverged {ctx}: arena={sa[key]} oracle={so[key]}"
        )
    if verdict_a is True:
        for v in range(1, arena.num_vars + 1):
            assert arena.model_value(v) == oracle.model_value(v), (
                f"model diverged at var {v} {ctx}"
            )
    elif verdict_a is False:
        assert arena.failed_assumptions == oracle.failed_assumptions, (
            f"failed-assumption core diverged {ctx}"
        )


@pytest.mark.parametrize("seed", range(40))
def test_random_streams_identical_trajectories(seed):
    """One-shot random CNF: same verdict, model/core, and counters."""
    rng = random.Random(7000 + seed)
    num_vars = rng.randint(5, 30)
    n_clauses = rng.randint(num_vars, 5 * num_vars)
    arena, oracle = _new_pair(num_vars)
    ok_a = ok_o = True
    for _ in range(n_clauses):
        clause = [from_dimacs(d) for d in _random_clause(rng, num_vars)]
        ok_a = arena.add_clause(list(clause)) and ok_a
        ok_o = oracle.add_clause(list(clause)) and ok_o
    assert ok_a == ok_o
    if not ok_a:
        return
    _assert_in_lockstep(arena, oracle, arena.solve(), oracle.solve(),
                        f"(seed={seed})")


@pytest.mark.parametrize("seed", range(25))
def test_incremental_episodes_with_assumptions(seed):
    """Interleaved add/solve episodes under random assumption probes."""
    rng = random.Random(8100 + seed)
    num_vars = rng.randint(8, 24)
    arena, oracle = _new_pair(num_vars)
    alive = True
    for episode in range(rng.randint(2, 5)):
        for _ in range(rng.randint(2, 3 * num_vars // 2)):
            clause = [from_dimacs(d) for d in _random_clause(rng, num_vars)]
            ra = arena.add_clause(list(clause))
            ro = oracle.add_clause(list(clause))
            assert ra == ro
            alive = alive and ra
        if not alive:
            return
        n_assume = rng.randint(0, 3)
        assumed_vars = rng.sample(range(1, num_vars + 1), k=min(n_assume,
                                                                num_vars))
        assumptions = [lit(v, rng.random() < 0.5) for v in assumed_vars]
        va = arena.solve(list(assumptions))
        vo = oracle.solve(list(assumptions))
        _assert_in_lockstep(arena, oracle, va, vo,
                            f"(seed={seed}, episode={episode})")
        if va is False and not assumptions:
            return  # permanently unsat: nothing further to compare


@pytest.mark.parametrize("seed", range(12))
def test_activation_literal_scopes(seed):
    """Push/pop emulation: clause groups guarded by activation literals.

    Scope k's clauses all carry the disabling literal ``a_k``; solving
    under assumptions ``~a_1..~a_j, a_{j+1}..`` activates exactly the
    first j scopes — the session layer's push/pop encoding.  Arena and
    oracle must agree at every activation depth, both ways through the
    stack.
    """
    rng = random.Random(9300 + seed)
    num_problem_vars = rng.randint(6, 14)
    n_scopes = rng.randint(2, 4)
    arena, oracle = _new_pair(num_problem_vars + n_scopes)
    act = [num_problem_vars + 1 + k for k in range(n_scopes)]
    for k in range(n_scopes):
        for _ in range(rng.randint(3, 8)):
            clause = _random_clause(rng, num_problem_vars)
            internal = [from_dimacs(d) for d in clause] + [lit(act[k], True)]
            assert arena.add_clause(list(internal))
            assert oracle.add_clause(list(internal))
    for depth in list(range(n_scopes + 1)) + [1, n_scopes]:
        assumptions = [lit(act[k], False) for k in range(depth)]
        va = arena.solve(list(assumptions))
        vo = oracle.solve(list(assumptions))
        _assert_in_lockstep(arena, oracle, va, vo,
                            f"(seed={seed}, depth={depth})")


def _pigeonhole_clauses(n_pigeons, n_holes, var):
    clauses = [[lit(var[p][h], True) for h in range(n_holes)]
               for p in range(n_pigeons)]
    for h in range(n_holes):
        for p1 in range(n_pigeons):
            for p2 in range(p1 + 1, n_pigeons):
                clauses.append([lit(var[p1][h], False),
                                lit(var[p2][h], False)])
    return clauses


def test_hard_unsat_instance_reaches_restarts_in_lockstep():
    """PHP(8,7): enough conflicts for restarts + learnt-DB churn."""
    n_p, n_h = 8, 7
    arena, oracle = SatSolver(), ReferenceSolver()
    var = [[arena.new_var() for _ in range(n_h)] for _ in range(n_p)]
    for _ in range(n_p * n_h):
        oracle.new_var()
    for clause in _pigeonhole_clauses(n_p, n_h, var):
        assert arena.add_clause(list(clause))
        assert oracle.add_clause(list(clause))
    _assert_in_lockstep(arena, oracle, arena.solve(), oracle.solve(),
                        "(php-8-7)")
    assert arena.statistics["restarts"] > 0, (
        "instance too easy to exercise the restart path"
    )


def test_forced_reduction_and_compaction_in_lockstep():
    """Drive both solvers through _reduce_db and arena compaction.

    A guarded PHP(8,7) — every pigeon clause carries an escape literal
    ``e`` — is refuted under ``~e`` (thousands of conflicts, learnt DB in
    the thousands), then both caps are manually lowered below the DB size
    so the next refutation must reduce (and, on the arena side, compact).
    Counters must stay identical through eviction and the final sat
    solve under ``e``.
    """
    n_p, n_h = 8, 7

    def build(cls):
        s = cls()
        var = [[s.new_var() for _ in range(n_h)] for _ in range(n_p)]
        e = s.new_var()
        for p in range(n_p):
            s.add_clause([lit(var[p][h], True) for h in range(n_h)]
                         + [lit(e, True)])
        for h in range(n_h):
            for p1 in range(n_p):
                for p2 in range(p1 + 1, n_p):
                    s.add_clause([lit(var[p1][h], False),
                                  lit(var[p2][h], False)])
        return s, e

    arena, e = build(SatSolver)
    oracle, _ = build(ReferenceSolver)
    _assert_in_lockstep(arena, oracle, arena.solve([lit(e, False)]),
                        oracle.solve([lit(e, False)]), "(guarded-php refute)")
    learnts_before = arena.statistics["learnts"]
    assert learnts_before > 1500, "instance too easy to force a reduction"
    # Lower both caps below the DB size (above the 1000 floor, so the
    # next solve() keeps it): the next search must reduce immediately.
    arena._max_learnts = oracle._max_learnts = 1500.0
    _assert_in_lockstep(arena, oracle, arena.solve([lit(e, False)]),
                        oracle.solve([lit(e, False)]), "(forced reduction)")
    assert arena.statistics["learnts"] < learnts_before
    assert arena._arena._free, "reduction should have compacted the arena"
    _assert_in_lockstep(arena, oracle, arena.solve([lit(e, True)]),
                        oracle.solve([lit(e, True)]), "(post-reduction sat)")


@pytest.mark.parametrize("seed", range(6))
def test_hard_random_instances_near_phase_transition(seed):
    """Random 3-SAT at clause ratio ~4.3: restarts and DB reductions."""
    rng = random.Random(11_000 + seed)
    num_vars = 46
    arena, oracle = _new_pair(num_vars)
    for _ in range(int(num_vars * 4.3)):
        vs = rng.sample(range(1, num_vars + 1), k=3)
        clause = [lit(v, rng.random() < 0.5) for v in vs]
        assert arena.add_clause(list(clause))
        assert oracle.add_clause(list(clause))
    _assert_in_lockstep(arena, oracle, arena.solve(), oracle.solve(),
                        f"(seed={seed})")


@pytest.mark.parametrize("seed", range(6))
def test_scopes_disabled_by_root_units(seed):
    """Pop emulation: each scope is disabled for good by a root unit.

    Scope k is a planted random 3-SAT formula at the threshold ratio
    (4.3 clauses per variable), and its clauses all carry the
    disabling literal ``a_k``; it is solved under ``~a_k``, then the root
    unit ``a_k`` retires it, and the next scope's clauses and solve
    follow, as after a session's ``pop()``.  The arena solver deletes
    every problem clause satisfied at the root at its next solve, while
    the reference keeps them: the counters, ``max_learnts`` included,
    must still agree, and the arena's live problem clauses must shrink.
    3,120 clauses are stored, so the learnt-clause cap is above its
    floor of 1,000 only if it counts the deleted clauses too.
    """
    rng = random.Random(9900 + seed)
    num_problem_vars, n_scopes, per_scope = 60, 12, 260
    arena, oracle = _new_pair(num_problem_vars + n_scopes)
    act = [num_problem_vars + 1 + k for k in range(n_scopes)]
    for k in range(n_scopes):
        planted = [rng.random() < 0.5 for _ in range(num_problem_vars + 1)]
        added = 0
        while added < per_scope:
            vs = rng.sample(range(1, num_problem_vars + 1), k=3)
            clause = [lit(v, rng.random() < 0.5) for v in vs]
            if not any((l & 1 == 0) == planted[l >> 1] for l in clause):
                continue
            clause.append(lit(act[k], True))
            assert arena.add_clause(list(clause))
            assert oracle.add_clause(list(clause))
            added += 1
        assumptions = [lit(act[k], False)]
        _assert_in_lockstep(arena, oracle, arena.solve(list(assumptions)),
                            oracle.solve(list(assumptions)),
                            f"(seed={seed}, scope={k})")
        assert arena.add_clause([lit(act[k], True)])
        assert oracle.add_clause([lit(act[k], True)])
    _assert_in_lockstep(arena, oracle, arena.solve(), oracle.solve(),
                        f"(seed={seed}, all retired)")
    assert oracle.statistics["max_learnts"] > 1000
    assert arena.num_clauses < oracle.num_clauses
