"""The unified solving session: scopes, assumptions, outcomes, backends."""

import pytest

from repro.api import (BackendAnswer, CheckOutcome, NativeBackend, Session,
                       make_backend)
from repro.errors import SolverError
from repro.smt import Bool, Not, Or, Real, sat, unknown, unsat


def fresh(prefix):
    """Namespaced variables (BoolVar/RealVar intern globally by name)."""
    return (Real(f"{prefix}_x"), Real(f"{prefix}_y"),
            Bool(f"{prefix}_a"), Bool(f"{prefix}_b"))


class TestSessionBasics:
    def test_check_returns_outcome_with_model(self):
        x, y, a, b = fresh("sb1")
        s = Session()
        s.add(x >= 3, y <= 2)
        out = s.check()
        assert isinstance(out, CheckOutcome)
        assert out == sat and out == "sat" and bool(out)
        assert out.model[x] >= 3
        assert out.backend == "native"
        assert out.statistics.keys() >= {"conflicts", "decisions"}

    def test_add_chains_and_flattens(self):
        x, y, a, b = fresh("sb2")
        s = Session().add([x >= 0, (y >= 0, a)], True)
        assert len(s.assertions) == 4
        assert s.check() == "sat"

    def test_add_rejects_non_boolean(self):
        s = Session()
        with pytest.raises(SolverError, match="Boolean"):
            s.add(42)

    def test_model_absent_on_unsat(self):
        x, y, a, b = fresh("sb3")
        s = Session()
        s.add(x >= 1, x <= 0)
        out = s.check()
        assert out == unsat and out.model is None
        with pytest.raises(SolverError, match="no model"):
            out.require_model()

    def test_context_manager(self):
        x, y, a, b = fresh("sb4")
        with Session() as s:
            s.add(x >= 0)
            assert s.check() == "sat"

    def test_session_counters(self):
        x, y, a, b = fresh("sb5")
        s = Session()
        s.add(Or(Not(a), x >= 4), Or(Not(b), x <= 1))
        s.check()
        s.check(a, b)
        stats = s.statistics
        assert stats["checks"] == 2
        assert stats["sat"] == 1 and stats["unsat"] == 1
        assert stats["assumption_checks"] == 1
        assert stats["cores_extracted"] == 1
        assert stats["native.vars"] > 0  # backend stats are prefixed

    def test_backend_instance_and_registry(self):
        assert isinstance(make_backend("native"), NativeBackend)
        s = Session(backend=NativeBackend())
        assert s.backend_name == "native"
        with pytest.raises(SolverError, match="unknown solver backend"):
            Session(backend="no-such-engine")
        with pytest.raises(SolverError, match="backend_options"):
            Session(backend=NativeBackend(), dump_dir="/tmp/x")


class TestScopes:
    def test_push_pop_restores(self):
        x, y, a, b = fresh("sc1")
        s = Session()
        s.add(x >= 0)
        s.push()
        s.add(x <= -1)
        assert s.check() == "unsat"
        s.pop()
        assert s.check() == "sat"
        assert s.num_scopes == 0
        assert len(s.assertions) == 1

    def test_pop_too_many_raises_cleanly(self):
        """Regression: pop(n) beyond the stack must raise, not corrupt."""
        s = Session()
        s.push()
        with pytest.raises(SolverError, match="cannot pop 2"):
            s.pop(2)
        # The stack survived the failed pop: still exactly one scope.
        assert s.num_scopes == 1
        s.pop()
        assert s.num_scopes == 0
        with pytest.raises(SolverError, match="cannot pop"):
            s.pop()
        with pytest.raises(SolverError, match="cannot pop"):
            s.pop(-1)

    def test_interleaved_scopes_and_assumptions(self):
        """Scopes must not leak assumption literals and vice versa."""
        x, y, a, b = fresh("sc2")
        s = Session()
        s.add(Or(Not(a), x >= 10))
        # Assumption inside a scope ...
        s.push()
        s.add(x <= 5)
        assert s.check(a) == "unsat"          # a forces x >= 10 > 5
        assert s.check() == "sat"             # assumption did not stick
        s.pop()
        # ... and after the pop, neither the scope nor the assumption.
        assert s.check(a) == "sat"
        assert s.check(a).model[x] >= 10
        out = s.check()
        assert out == "sat"

    def test_assumptions_do_not_leak_across_pops(self):
        x, y, a, b = fresh("sc3")
        s = Session()
        s.push()
        s.add(Or(Not(b), y >= 7))
        assert s.check(b).model[y] >= 7
        s.pop()
        # b's guard clause was scoped out; b is now unconstrained.
        out = s.check(b)
        assert out == "sat"
        s.add(y <= 0)
        assert s.check(b) == "sat"


    def test_false_in_a_scope_is_retracted_by_its_pop(self):
        x, y, a, b = fresh("sc4")
        s = Session()
        s.add(a)
        s.push()
        s.add(False)
        assert s.check() == "unsat"
        s.pop()
        assert s.check() == "sat"

    def test_first_atoms_after_boolean_checks(self):
        """The theory attaches at the first atom, after Boolean-only
        push/add/pop/check rounds left literals on the root trail; it
        must see them in trail order before the atoms' own."""
        x, y, a, b = fresh("sc5")
        s = Session()
        s.add(Or(a, b), Not(a))
        s.push()
        s.add(a)
        assert s.check() == "unsat"
        s.pop()
        assert s.check() == "sat"
        engine = s.backend.engine
        assert engine._sat.theory is None
        assert engine._sat.root_literals()
        s.push()
        s.add(x - y <= -1, y - x <= -1)
        assert engine._sat.theory is not None
        assert s.check() == "unsat"
        s.pop()
        # b is true at the root, so this asserts the atom at level 0.  A
        # theory that missed the root literals would still hold the
        # scope's x - y <= -1 here and answer unsat.
        s.add(Or(Not(b), y - x <= -1))
        out = s.check()
        assert out == "sat"
        assert out.model[y] - out.model[x] <= -1

    def test_atom_free_model_has_no_reals(self):
        x, y, a, b = fresh("sc6")
        s = Session()
        s.add(Or(a, b))
        out = s.check()
        assert out == "sat"
        assert out.model.reals == {}
        assert s.backend.engine._sat.theory is None


class TestSerializationBackend:
    def test_native_replay_matches_native(self):
        x, y, a, b = fresh("sz1")
        results = {}
        for backend in ("native", "serialization"):
            s = Session(backend=backend)
            s.add(x >= 3, Or(Not(a), x <= 1))
            results[backend] = (
                s.check().status.name,
                s.check(a).status.name,
            )
        assert results["native"] == results["serialization"] == ("sat", "unsat")

    def test_scripts_are_emitted_and_dumped(self, tmp_path):
        x, y, a, b = fresh("sz2")
        s = Session(backend="serialization", dump_dir=tmp_path)
        s.add(x + y <= 4, a)
        out = s.check(b)
        script = s.backend.last_script
        assert "(set-logic QF_LRA)" in script
        assert "(check-sat-assuming" in script
        dumps = list(tmp_path.glob("check_*.smt2"))
        assert len(dumps) == 1
        assert dumps[0].read_text() == script
        assert out.status in (sat, unsat, unknown)

    def test_push_pop_in_replay(self):
        x, y, a, b = fresh("sz4")
        s = Session(backend="serialization")
        s.add(x >= 0)
        s.push()
        s.add(x <= -1)
        assert s.check() == "unsat"
        s.pop()
        assert s.check() == "sat"


def _pigeonhole_session(n_pigeons=7, n_holes=6, prefix="php", **options):
    """A hard pure-SAT session: PHP(n_pigeons, n_holes), unsat."""
    s = Session(**options)
    var = [[Bool(f"{prefix}_{p}_{h}") for h in range(n_holes)]
           for p in range(n_pigeons)]
    for p in range(n_pigeons):
        s.add(Or([var[p][h] for h in range(n_holes)]))
    for h in range(n_holes):
        for p1 in range(n_pigeons):
            for p2 in range(p1 + 1, n_pigeons):
                s.add(Or(Not(var[p1][h]), Not(var[p2][h])))
    return s


class TestCheckBudgetAndRestartHook:
    """``max_conflicts`` bounds a check; ``on_restart`` observes it."""

    def test_exhausted_budget_answers_unknown_without_model(self):
        s = _pigeonhole_session(prefix="budget1", max_conflicts=20)
        out = s.check()
        assert out == unknown and out.model is None
        assert s.statistics["unknown"] == 1

    def test_budget_does_not_disturb_easy_checks(self):
        x, y, a, b = fresh("budget2")
        s = Session(max_conflicts=20)
        s.add(Or(a, b), x >= 3)
        assert s.check() == sat
        s.add(x <= 2)
        assert s.check() == unsat

    def test_unknown_under_assumptions_has_no_core(self):
        a = Bool("budget3_guard")
        s = _pigeonhole_session(prefix="budget3", max_conflicts=20)
        out = s.check(a)
        assert out == unknown
        assert out.unsat_core is None
        assert s.statistics["cores_extracted"] == 0

    def test_on_restart_fires_with_the_engine(self):
        seen = []
        s = _pigeonhole_session(prefix="hook1", max_conflicts=150,
                                on_restart=lambda eng: seen.append(eng))
        s.check()
        assert seen, "no restart fired inside the check"
        assert all(e is s.backend.engine for e in seen)

    def test_stop_aborts_once_the_hook_sets_its_flag(self):
        restarts = []
        s = _pigeonhole_session(prefix="hook2", on_restart=restarts.append)
        s.backend.engine.stop = lambda: bool(restarts)
        out = s.check()
        assert out == unknown
        # Withdrawn, the predicate stops nothing: a re-check completes.
        s.backend.engine.on_restart = None
        s.backend.engine.stop = None
        assert s.check() == unsat


class UndecidedBackend:
    """A backend that takes every assertion and decides nothing."""

    name = "undecided"

    def add(self, expr):
        pass

    def push(self):
        pass

    def pop(self, n=1):
        pass

    def check(self, assumptions, minimize_core=True):
        return BackendAnswer(unknown)

    def statistics(self):
        return {}


class TestUndecidedBackendPropagation:
    """Review regressions: an 'unknown' answer must never be upgraded to
    a definite verdict by downstream consumers."""

    def test_solve_reports_unknown_not_unsat(self):
        from repro.core import SynthesisOptions, solve
        from repro.eval.workloads import bottleneck_problem

        session = Session(backend=UndecidedBackend())
        result = solve(bottleneck_problem(2), SynthesisOptions(routes=2),
                       session=session)
        assert result.status == "unknown"
        assert not result.ok
