"""Unsat-core properties: subset, sufficiency, deletion-minimality."""

import random

import pytest

from repro.api import Session
from repro.smt import Bool, Not, Or, Real, SolverEngine, unsat


def lits(prefix, n):
    return [Bool(f"{prefix}_l{i}") for i in range(n)]


class TestCoreProperties:
    def test_core_subset_of_assumptions(self):
        a, b, c, d = lits("cp1", 4)
        x = Real("cp1_x")
        s = Session()
        s.add(Or(Not(a), x >= 5), Or(Not(b), x <= 1))
        out = s.check(a, b, c, d)
        assert out == unsat
        assert set(out.unsat_core) <= {a, b, c, d}
        assert set(out.unsat_core) == {a, b}

    def test_core_alone_still_unsat(self):
        a, b, c, d = lits("cp2", 4)
        x = Real("cp2_x")
        s = Session()
        s.add(Or(Not(a), x >= 5), Or(Not(b), x <= 1), Or(Not(c), x >= 0))
        out = s.check(a, b, c, d)
        assert out == unsat
        again = s.check(out.unsat_core)
        assert again == unsat
        # and the re-check's own core is no larger
        assert set(again.unsat_core) <= set(out.unsat_core)

    def test_minimized_core_is_deletion_minimal(self):
        """Dropping any single literal from the core makes it sat."""
        a, b, c, d = lits("cp3", 4)
        x = Real("cp3_x")
        s = Session()
        s.add(Or(Not(a), x >= 5), Or(Not(b), x <= 1), Or(Not(c), x <= 2))
        out = s.check(a, b, c, d)
        assert out == unsat
        core = list(out.unsat_core)
        for dropped in range(len(core)):
            remainder = core[:dropped] + core[dropped + 1:]
            assert s.check(remainder) == "sat", (
                f"core not minimal: still unsat without {core[dropped]!r}"
            )

    def test_minimization_shrinks_raw_core(self):
        """Deletion minimization strictly improves a redundant raw core.

        ``a`` implies ``c``, and ``b`` alone is contradictory (it forces
        both ``c`` and ``not c``) — but with assumption order ``[a, b]``
        the final conflict's implication graph passes through ``a``'s
        implication of ``c``, so the raw core overcounts to ``{a, b}``
        while the true minimum is ``{b}``.
        """
        a, b, c = lits("cp4", 3)
        engine = SolverEngine()
        engine.add(Or(Not(a), c))        # a -> c
        engine.add(Or(Not(b), c))        # b -> c
        engine.add(Or(Not(b), Not(c)))   # b -> not c
        assert engine.check(a, b) == unsat
        raw = engine.unsat_core(minimize=False)
        assert set(raw) == {a, b}
        minimized = engine.unsat_core(minimize=True)
        assert minimized == [b]

    def test_empty_core_when_formula_unsat(self):
        a, b, c, d = lits("cp5", 4)
        x = Real("cp5_x")
        s = Session()
        s.add(x >= 3, x <= 1)
        out = s.check(a, b)
        assert out == unsat
        assert out.unsat_core == ()

    def test_no_core_without_assumptions(self):
        x = Real("cp6_x")
        s = Session()
        s.add(x >= 3, x <= 1)
        out = s.check()
        assert out == unsat and out.unsat_core is None

    def test_contradictory_assumption_pair(self):
        a, b, c, d = lits("cp7", 4)
        s = Session()
        s.add(Or(a, b))
        na = Not(a)
        out = s.check(a, na, c)
        assert out == unsat
        assert len(out.unsat_core) == 2
        assert a in out.unsat_core and na in out.unsat_core

    def test_minimize_off_returns_raw(self):
        a, b, c, d = lits("cp8", 4)
        x = Real("cp8_x")
        s = Session(minimize_cores=False)
        s.add(Or(Not(a), x >= 5), Or(Not(b), x <= 1))
        out = s.check(a, b, c)
        assert out == unsat
        assert {a, b} <= set(out.unsat_core)

    def test_cores_respect_scopes(self):
        a, b, c, d = lits("cp9", 4)
        x = Real("cp9_x")
        s = Session()
        s.add(Or(Not(a), x >= 5))
        s.push()
        s.add(x <= 1)
        out = s.check(a, b)
        assert out == unsat
        assert list(out.unsat_core) == [a]  # scope selector never leaks out
        s.pop()
        assert s.check(a, b) == "sat"


class TestStoppedMinimization:
    def test_a_stop_mid_minimization_keeps_an_unsat_core(self):
        """An aborted probe proves nothing: the core found so far stays.

        Nine selectors each release one pigeon into five holes, so the
        raw core names all nine and minimization starts by probing
        eight pigeons, a proof long enough to restart.  The stop fires
        at that restart; the probe's empty failed-assumption set must
        not be read as "the assertions alone are unsat".
        """
        pigeons, holes = 9, 5
        sel = lits("stopcore", pigeons)
        at = [[Bool(f"stopcore_p{p}h{h}") for h in range(holes)]
              for p in range(pigeons)]
        engine = SolverEngine()
        for p in range(pigeons):
            engine.add(Or(Not(sel[p]), *at[p]))
        for h in range(holes):
            for p in range(pigeons):
                for q in range(p + 1, pigeons):
                    engine.add(Or(Not(at[p][h]), Not(at[q][h])))
        assert engine.check(*sel) == unsat
        assert len(engine.unsat_core(minimize=False)) == pigeons
        restarts = []
        engine.on_restart = restarts.append
        engine.stop = lambda: bool(restarts)
        core = engine.unsat_core()
        assert restarts, "the stop never fired mid-minimization"
        assert core and set(core) <= set(sel)
        engine.on_restart = engine.stop = None
        assert engine.check(*core) == unsat
        assert engine.check() == "sat"


class TestCorePropertiesRandomized:
    """Seeded random interval systems: core invariants must always hold."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interval_conflicts(self, seed):
        rng = random.Random(seed)
        x = Real(f"cr_{seed}_x")
        n = rng.randint(4, 9)
        guards = lits(f"cr_{seed}", n)
        s = Session()
        spans = []
        for i, g in enumerate(guards):
            lo = rng.randint(0, 20)
            hi = lo + rng.randint(0, 6)
            spans.append((lo, hi))
            s.add(Or(Not(g), x >= lo), Or(Not(g), x <= hi))
        out = s.check(guards)
        feasible = max(lo for lo, _ in spans) <= min(hi for _, hi in spans)
        if feasible:
            assert out == "sat"
            return
        assert out == unsat
        core = list(out.unsat_core)
        assert core and set(core) <= set(guards)
        # sufficiency
        assert s.check(core) == unsat
        # deletion-minimality
        for dropped in range(len(core)):
            rest = core[:dropped] + core[dropped + 1:]
            assert s.check(rest) == "sat"
