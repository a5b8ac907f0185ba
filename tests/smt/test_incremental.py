"""Incremental solving: push/pop scopes and assumption-based check().

The seeded property tests compare the *same* persistent solver — scopes
pushed, popped, re-checked, learned clauses carried across calls —
against fresh single-shot solvers on random difference-logic and CNF
instances.  Any divergence means scope retraction or assumption handling
corrupted the clause database or theory state.
"""

import random
from fractions import Fraction

import pytest

from repro.errors import SolverError
from repro.smt import And, Bool, Implies, Not, Or, Real, SolverEngine, sat, unsat


class TestScopes:
    def test_push_pop_restores_sat(self):
        s = SolverEngine()
        x = Real("inc_a")
        s.add(x >= 0, x <= 10)
        assert s.check() == sat
        s.push()
        s.add(x <= -1)
        assert s.check() == unsat
        s.pop()
        assert s.check() == sat
        assert 0 <= s.model()[x] <= 10

    def test_nested_scopes(self):
        s = SolverEngine()
        x = Real("inc_b")
        s.add(x >= 0)
        s.push()
        s.add(x >= 5)
        s.push()
        s.add(x <= 4)
        assert s.num_scopes == 2
        assert s.check() == unsat
        s.pop()
        assert s.check() == sat
        assert s.model()[x] >= 5
        s.pop()
        assert s.num_scopes == 0
        assert s.check() == sat

    def test_pop_multiple(self):
        s = SolverEngine()
        x = Real("inc_c")
        s.add(x >= 0)
        s.push()
        s.add(x >= 1)
        s.push()
        s.add(x >= 2)
        s.pop(2)
        assert s.num_scopes == 0
        assert s.check() == sat

    def test_pop_too_many_raises(self):
        s = SolverEngine()
        with pytest.raises(SolverError):
            s.pop()

    def test_assertions_tracks_scopes(self):
        s = SolverEngine()
        x = Real("inc_d")
        s.add(x >= 0)
        s.push()
        s.add(x <= 3)
        assert s.num_scopes == 1
        assert s.check(x >= 4) == unsat
        s.pop()
        assert s.num_scopes == 0
        assert s.check(x >= 4) == sat

    def test_booleans_in_scopes(self):
        s = SolverEngine()
        a, b = Bool("inc_p"), Bool("inc_q")
        s.add(Or(a, b))
        s.push()
        s.add(Not(a), Not(b))
        assert s.check() == unsat
        s.pop()
        assert s.check() == sat


def _clause_stream(assert_in_scope, prefix):
    """Clauses (and the variable count) one scoped assertion emits."""
    engine = SolverEngine()
    clauses = []
    add_clause = engine._sat.add_clause

    def recording(lits):
        clauses.append(list(lits))
        return add_clause(lits)

    engine._sat.add_clause = recording
    x, y = Real(f"{prefix}_x"), Real(f"{prefix}_y")
    a, b = Bool(f"{prefix}_a"), Bool(f"{prefix}_b")
    engine.add(Or(a, x <= 1))
    engine.push()
    for expr in (Or(a, Not(b), x - y <= 2), And(a, y >= 0), x <= 3,
                 Not(b), b, Or(a, And(b, x >= 1)), True, False):
        assert_in_scope(engine, expr)
    return clauses, engine._sat.num_vars


def test_guarded_clause_is_the_clause_of_or_not_scope():
    """``add`` inside a scope emits exactly the clauses, literal order and
    variable numbering that asserting ``Or(Not(scope), expr)`` emits."""
    direct = _clause_stream(lambda e, expr: e.add(expr), "gc1")
    via_term = _clause_stream(
        lambda e, expr: e._cnf.assert_formula(Or(Not(e._scopes[-1]), expr)),
        "gc1")
    assert direct == via_term


class TestAssumptions:
    def test_assumption_literal(self):
        s = SolverEngine()
        a = Bool("as_a")
        x = Real("as_x")
        s.add(Implies(a, x >= 8), x <= 10)
        assert s.check(a) == sat
        assert s.model()[x] >= 8
        assert s.check(Not(a)) == sat
        assert s.check() == sat

    def test_assumption_atom(self):
        s = SolverEngine()
        x = Real("as_y")
        s.add(x >= 0, x <= 10)
        assert s.check(x >= 11) == unsat
        assert s.check(x >= 9) == sat
        assert s.model()[x] >= 9

    def test_conflicting_assumptions(self):
        s = SolverEngine()
        a = Bool("as_b")
        s.add(Or(a, Not(a)))  # mention the var
        assert s.check(a, Not(a)) == unsat
        assert s.check(a) == sat

    def test_unsat_under_assumptions_is_not_sticky(self):
        s = SolverEngine()
        x = Real("as_z")
        s.add(x >= 0)
        for _ in range(3):
            assert s.check(x <= -1) == unsat
            assert s.check() == sat

    def test_last_check_statistics_resets(self):
        s = SolverEngine()
        x = Real("as_s")
        s.add(Or(x <= -1, x >= 1), x >= 0)
        assert s.check() == sat
        first = s.last_check_statistics
        assert first["decisions"] >= 0
        assert s.check() == sat
        # The delta is per-call, not cumulative.
        assert s.last_check_statistics["propagations"] <= s.statistics["propagations"]


def _random_difflogic(rng, prefix, n_vars, n_cons):
    """Random difference-logic constraints x_i - x_j <= c."""
    xs = [Real(f"{prefix}_x{i}") for i in range(n_vars)]
    cons = []
    for _ in range(n_cons):
        i, j = rng.sample(range(n_vars), 2)
        c = Fraction(rng.randint(-4, 4))
        cons.append(xs[i] - xs[j] <= c)
    return cons


def _random_cnf(rng, prefix, n_vars, n_clauses):
    """Random 3-CNF over fresh Boolean variables."""
    vs = [Bool(f"{prefix}_b{i}") for i in range(n_vars)]
    clauses = []
    for _ in range(n_clauses):
        lits = []
        for v in rng.sample(vs, 3):
            lits.append(v if rng.random() < 0.5 else Not(v))
        clauses.append(Or(lits))
    return vs, clauses


class TestIncrementalAgreesWithFresh:
    """Seeded equivalence: persistent push/pop/assume vs fresh solves."""

    @pytest.mark.parametrize("seed", range(12))
    def test_difflogic_push_pop(self, seed):
        rng = random.Random(seed)
        prefix = f"dl{seed}"
        base = _random_difflogic(rng, prefix, 5, 8)
        extra = _random_difflogic(rng, prefix, 5, 6)

        fresh_base = SolverEngine()
        fresh_base.add(base)
        expect_base = fresh_base.check()

        fresh_both = SolverEngine()
        fresh_both.add(base, extra)
        expect_both = fresh_both.check()

        s = SolverEngine()
        s.add(base)
        assert s.check().name == expect_base.name
        s.push()
        s.add(extra)
        assert s.check().name == expect_both.name
        s.pop()
        # Learned clauses from the popped scope must not change the answer.
        assert s.check().name == expect_base.name
        s.push()
        s.add(extra)
        assert s.check().name == expect_both.name
        s.pop()

    @pytest.mark.parametrize("seed", range(12))
    def test_cnf_assumptions(self, seed):
        rng = random.Random(1000 + seed)
        prefix = f"cnf{seed}"
        vs, clauses = _random_cnf(rng, prefix, 6, 14)
        assumed = [v if rng.random() < 0.5 else Not(v)
                   for v in rng.sample(vs, 3)]

        fresh = SolverEngine()
        fresh.add(clauses)
        fresh.add(assumed)  # assumptions as hard constraints
        expected = fresh.check()

        s = SolverEngine()
        s.add(clauses)
        plain = s.check()
        assert s.check(assumed).name == expected.name
        # Assumptions leave no residue.
        assert s.check().name == plain.name

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_scope_reuse(self, seed):
        """One solver, many scope cycles, random mixed constraints."""
        rng = random.Random(2000 + seed)
        prefix = f"mx{seed}"
        base = _random_difflogic(rng, prefix, 4, 5)
        _, base_cnf = _random_cnf(rng, prefix, 4, 6)
        s = SolverEngine()
        s.add(base, base_cnf)
        baseline = s.check()

        for round_idx in range(4):
            extra = _random_difflogic(rng, f"{prefix}r{round_idx}", 4, 4)
            fresh = SolverEngine()
            fresh.add(base, base_cnf, extra)
            expected = fresh.check()
            s.push()
            s.add(extra)
            assert s.check().name == expected.name, f"round {round_idx}"
            s.pop()
            assert s.check().name == baseline.name, f"round {round_idx}"

    @pytest.mark.parametrize("seed", range(6))
    def test_model_satisfies_all_assertions(self, seed):
        """On sat checks inside a scope, the model satisfies base + scope."""
        rng = random.Random(3000 + seed)
        prefix = f"md{seed}"
        base = _random_difflogic(rng, prefix, 4, 4)
        extra = _random_difflogic(rng, prefix, 4, 3)
        s = SolverEngine()
        s.add(base)
        s.push()
        s.add(extra)
        if s.check() == sat:
            m = s.model()
            for formula in base + extra:
                assert m.eval_bool(formula)
        s.pop()
        if s.check() == sat:
            m = s.model()
            for formula in base:
                assert m.eval_bool(formula)
