"""Arena mechanics, learnt-DB policy fixes, and budget/stop aborts.

The flat-array clause arena replaced the per-clause object store; these
tests pin its invariants directly (handle stability across compaction,
free-slot recycling, wasted-space accounting) plus the two learnt-DB
policy fixes that rode along:

* glue clauses (LBD <= 2) survive every reduction — LBD is the primary
  eviction key, activity only tie-breaks;
* the learnt cap grows geometrically across restarts and persists
  across ``solve()`` calls, surfaced as ``statistics()["max_learnts"]``.
"""

import pytest

from repro.sat.arena import ClauseArena
from repro.sat.literals import from_dimacs, lit
from repro.sat.solver import SatSolver


def _lits(*ints):
    """DIMACS-style ints -> internal literals."""
    return [from_dimacs(i) for i in ints]


class TestClauseArena:
    def test_round_trip_and_metadata(self):
        arena = ClauseArena()
        a = arena.new_clause([2, 5, 7], learnt=False)
        b = arena.new_clause([4, 9], learnt=True, lbd=2)
        assert arena.literals(a) == [2, 5, 7]
        assert arena.literals(b) == [4, 9]
        assert not arena.learnt[a] and arena.learnt[b]
        assert arena.lbd[b] == 2
        assert arena.size[a] == 3 and arena.size[b] == 2

    def test_delete_marks_dead_and_accounts_waste(self):
        arena = ClauseArena()
        a = arena.new_clause([2, 5, 7], learnt=True, lbd=3)
        assert arena.wasted == 0
        arena.delete(a)
        assert arena.dead[a]
        assert arena.wasted == 3

    def test_handles_are_not_recycled_before_compaction(self):
        arena = ClauseArena()
        a = arena.new_clause([2, 5], learnt=True, lbd=2)
        arena.delete(a)
        b = arena.new_clause([7, 9], learnt=True, lbd=2)
        # A dead handle must stay distinct (reasons/watches may still
        # name it) until compact() explicitly frees it.
        assert b != a
        assert arena.literals(b) == [7, 9]

    def test_compact_preserves_live_handles_and_literals(self):
        arena = ClauseArena()
        handles = [arena.new_clause([2 * k, 2 * k + 4, 2 * k + 6], learnt=True,
                                    lbd=3) for k in range(1, 9)]
        doomed = handles[::2]
        for h in doomed:
            arena.delete(h)
        survivors = {h: arena.literals(h) for h in handles[1::2]}
        freed = arena.compact()
        assert freed == len(doomed)
        assert arena.wasted == 0
        for h, lits in survivors.items():
            assert arena.literals(h) == lits
        # Freed ids become available for new clauses only now.
        fresh = arena.new_clause([2, 4], learnt=False)
        assert fresh in set(doomed)

    def test_live_literals_counts_only_live_clauses(self):
        arena = ClauseArena()
        a = arena.new_clause([2, 5, 7], learnt=False)
        b = arena.new_clause([4, 9], learnt=True, lbd=2)
        arena.delete(b)
        assert arena.live_literals == 3
        assert a is not None


class TestGlueSurvival:
    """Regression: _reduce_db must never evict glue (LBD <= 2) clauses."""

    def _solver_with_learnts(self, lbds):
        s = SatSolver()
        for _ in range(12):
            s.new_var()
        handles = []
        for i, lbd in enumerate(lbds):
            # Three unassigned literals each: never locked, size > 2.
            base = 1 + (3 * i) % 9
            lits = _lits(base, -(base + 1), base + 2)
            h = s._arena.new_clause(lits, learnt=True, lbd=lbd)
            s._learnts.append(h)
            s._attach(h)
            handles.append(h)
        return s, handles

    def test_glue_survives_forced_reduction(self):
        lbds = [2, 9, 1, 8, 2, 7, 6, 2, 5, 4]
        s, handles = self._solver_with_learnts(lbds)
        s._reduce_db()
        survivors = set(s._learnts)
        for h, lbd in zip(handles, lbds):
            if lbd <= 2:
                assert h in survivors, f"glue clause (lbd={lbd}) was evicted"
        # The reduction did do real work: some high-LBD clause is gone.
        assert len(survivors) < len(handles)

    def test_eviction_order_is_lbd_first_activity_tiebreak(self):
        lbds = [5, 5, 9, 9]
        s, handles = self._solver_with_learnts(lbds)
        # Same LBD pair: the less active clause must go first.
        s._arena.activity[handles[0]] = 10.0
        s._arena.activity[handles[1]] = 1.0
        s._arena.activity[handles[2]] = 10.0
        s._arena.activity[handles[3]] = 1.0
        s._reduce_db()
        survivors = set(s._learnts)
        # Worst half = the two LBD-9 clauses; both LBD-5 stay.
        assert handles[0] in survivors and handles[1] in survivors
        assert handles[2] not in survivors and handles[3] not in survivors

    def test_binary_and_locked_clauses_survive(self):
        s = SatSolver()
        for _ in range(6):
            s.new_var()
        binary = s._arena.new_clause(_lits(1, 2), learnt=True, lbd=9)
        s._learnts.append(binary)
        s._attach(binary)
        for lbd in (9, 9, 9, 9):
            h = s._arena.new_clause(_lits(3, -4, 5), learnt=True, lbd=lbd)
            s._learnts.append(h)
            s._attach(h)
        s._reduce_db()
        assert binary in s._learnts


class TestMaxLearntsPolicy:
    def test_cap_is_surfaced_and_persists(self):
        s = SatSolver()
        for _ in range(4):
            s.new_var()
        s.add_clause(_lits(1, 2))
        s.add_clause(_lits(-1, 3))
        assert s.statistics["max_learnts"] == 0  # not yet solving
        assert s.solve() is True
        cap = s.statistics["max_learnts"]
        assert cap >= 1000
        # A second solve must not shrink the cap (no re-derivation from
        # scratch at every call — the pre-fix bug).
        assert s.solve(_lits(4)) is True
        assert s.statistics["max_learnts"] >= cap

    def test_cap_grows_across_restarts(self):
        s = SatSolver()
        for _ in range(4):
            s.new_var()
        s.add_clause(_lits(1, 2))
        assert s.solve() is True
        base = s._max_learnts
        # Simulate what the restart path does.
        s._max_learnts *= s._max_learnts_growth
        assert s._max_learnts == pytest.approx(base * 1.1)


class TestBudgetAndInterrupt:
    def _hard_solver(self):
        """A small unsat pigeonhole instance (7 pigeons, 6 holes)."""
        n_p, n_h = 7, 6
        s = SatSolver()
        var = [[s.new_var() for _ in range(n_h)] for _ in range(n_p)]
        for p in range(n_p):
            s.add_clause([lit(var[p][h], True) for h in range(n_h)])
        for h in range(n_h):
            for p1 in range(n_p):
                for p2 in range(p1 + 1, n_p):
                    s.add_clause([lit(var[p1][h], False),
                                  lit(var[p2][h], False)])
        return s

    def test_max_conflicts_aborts_with_none(self):
        s = self._hard_solver()
        assert s.solve(max_conflicts=20) is None
        assert s.decision_level == 0
        assert s.statistics["conflicts"] >= 20

    def test_abort_fires_on_restart_hook(self):
        s = self._hard_solver()
        fired = []
        s.on_restart = lambda solver: fired.append(
            solver.statistics["conflicts"])
        assert s.solve(max_conflicts=20) is None
        assert fired, "abort must flush through on_restart"

    def test_budget_is_per_call_and_resumable(self):
        s = self._hard_solver()
        assert s.solve(max_conflicts=20) is None
        # Unbounded resume completes the proof; learnt state carried over.
        assert s.solve() is False

    def test_stop_predicate_aborts_next_boundary(self):
        s = self._hard_solver()
        flushes = []
        s.on_restart = lambda solver: flushes.append(solver.decision_level)
        # The first restart makes the predicate true; the next poll ends
        # the solve with one more flush, the trail cancelled to level 0.
        assert s.solve(stop=lambda: bool(flushes)) is None
        assert len(flushes) == 2 and flushes[-1] == 0
        s.on_restart = None
        assert s.solve() is False  # held for one call only; run completes

    def test_unit_contradiction_gives_false_not_none(self):
        s = SatSolver()
        s.new_var()
        s.add_clause(_lits(1))
        assert s.add_clause(_lits(-1)) is False
        assert s.solve(max_conflicts=5) is False
