"""End-to-end tests of the DPLL(T) SMT solver."""

from fractions import Fraction

import pytest

from repro.errors import SolverError
from repro.smt import (
    And,
    Bool,
    ExactlyOne,
    Implies,
    Not,
    Or,
    Real,
    SolverEngine,
    sat,
    unsat,
)


class TestPureBool:
    def test_simple_sat(self):
        s = SolverEngine()
        a, b = Bool("a"), Bool("b")
        s.add(Or(a, b), Not(a))
        assert s.check() == sat
        m = s.model()
        assert m[b] is True
        assert m[a] is False

    def test_simple_unsat(self):
        s = SolverEngine()
        a = Bool("a")
        s.add(a, Not(a))
        assert s.check() == unsat

    def test_implication_chain(self):
        s = SolverEngine()
        bools = [Bool(f"c{i}") for i in range(10)]
        s.add(bools[0])
        for i in range(9):
            s.add(Implies(bools[i], bools[i + 1]))
        assert s.check() == sat
        m = s.model()
        assert all(m[b] for b in bools)

    def test_exactly_one(self):
        s = SolverEngine()
        bools = [Bool(f"e{i}") for i in range(4)]
        s.add(ExactlyOne(bools))
        s.add(Not(bools[0]), Not(bools[1]), Not(bools[2]))
        assert s.check() == sat
        assert s.model()[bools[3]] is True


class TestArithmetic:
    def test_bounds_sat(self):
        s = SolverEngine()
        x = Real("tx")
        s.add(x >= 1, x <= 3)
        assert s.check() == sat
        assert 1 <= s.model()[x] <= 3

    def test_bounds_unsat(self):
        s = SolverEngine()
        x = Real("ty")
        s.add(x >= 5, x <= 3)
        assert s.check() == unsat

    def test_strict_bounds(self):
        s = SolverEngine()
        x = Real("tz")
        s.add(x > 1, x < 2)
        assert s.check() == sat
        v = s.model()[x]
        assert 1 < v < 2

    def test_strict_unsat(self):
        s = SolverEngine()
        x = Real("tw")
        s.add(x > 1, x < 1)
        assert s.check() == unsat

    def test_difference_chain(self):
        s = SolverEngine()
        a, b, c = Real("da"), Real("db"), Real("dc")
        s.add(b - a >= 1, c - b >= 1, a >= 0, c <= 5)
        assert s.check() == sat
        m = s.model()
        assert m[b] - m[a] >= 1
        assert m[c] - m[b] >= 1

    def test_difference_cycle_unsat(self):
        s = SolverEngine()
        a, b, c = Real("ca"), Real("cb"), Real("cc")
        s.add(b - a >= 1, c - b >= 1, a - c >= 0)
        assert s.check() == unsat

    def test_equality(self):
        s = SolverEngine()
        x, y = Real("eqx"), Real("eqy")
        s.add(x == 3, y == x + 2)
        assert s.check() == sat
        m = s.model()
        assert m[x] == 3 and m[y] == 5

    def test_general_linear_sat(self):
        s = SolverEngine()
        x, y = Real("glx"), Real("gly")
        s.add(2 * x + 3 * y <= 12, x >= 2, y >= 1)
        assert s.check() == sat
        m = s.model()
        assert 2 * m[x] + 3 * m[y] <= 12

    def test_general_linear_unsat(self):
        s = SolverEngine()
        x, y = Real("gux"), Real("guy")
        s.add(2 * x + 3 * y <= 6, x >= 2, y >= 1)
        assert s.check() == unsat

    def test_fractional_coefficients(self):
        s = SolverEngine()
        x = Real("frx")
        s.add(Fraction(1, 3) * x >= 1, x <= Fraction(10, 3))
        assert s.check() == sat
        assert 3 <= s.model()[x] <= Fraction(10, 3)


class TestMixed:
    def test_disjunction_of_atoms(self):
        s = SolverEngine()
        x = Real("mx")
        s.add(Or(x <= -1, x >= 1), x >= 0, x <= Fraction(1, 2))
        assert s.check() == unsat

    def test_disjunction_picks_branch(self):
        s = SolverEngine()
        x = Real("my")
        s.add(Or(x <= -1, x >= 1), x >= 0)
        assert s.check() == sat
        assert s.model()[x] >= 1

    def test_guarded_constraints(self):
        s = SolverEngine()
        g1, g2 = Bool("g1"), Bool("g2")
        x, y = Real("gx"), Real("gy")
        s.add(Or(g1, g2))
        s.add(Implies(g1, x - y >= 2))
        s.add(Implies(g2, y - x >= 2))
        s.add(x >= 0, y >= 0, x + y <= 3)
        assert s.check() == sat
        m = s.model()
        assert abs(m[x] - m[y]) >= 2

    def test_scheduling_style_disjunction(self):
        """Two jobs of length 2 on one machine within [0, 4]: exactly fits."""
        s = SolverEngine()
        t1, t2 = Real("j1"), Real("j2")
        s.add(t1 >= 0, t2 >= 0, t1 <= 2, t2 <= 2)
        s.add(Or(t1 - t2 >= 2, t2 - t1 >= 2))
        assert s.check() == sat
        m = s.model()
        assert abs(m[t1] - m[t2]) >= 2

    def test_scheduling_style_unsat(self):
        """Two jobs of length 2 in a window of 3 cannot both fit."""
        s = SolverEngine()
        t1, t2 = Real("k1"), Real("k2")
        s.add(t1 >= 0, t2 >= 0, t1 <= 1, t2 <= 1)
        s.add(Or(t1 - t2 >= 2, t2 - t1 >= 2))
        assert s.check() == unsat

    def test_min_max_encoding(self):
        """The Lmin/Lmax pattern used by the stability encoding."""
        s = SolverEngine()
        e1, e2, e3 = Real("me1"), Real("me2"), Real("me3")
        lmin, lmax = Real("mlmin"), Real("mlmax")
        s.add(e1 == 3, e2 == 5, e3 == 4)
        for e in (e1, e2, e3):
            s.add(lmin <= e, lmax >= e)
        s.add(Or(lmin >= e1, lmin >= e2, lmin >= e3))
        s.add(Or(lmax <= e1, lmax <= e2, lmax <= e3))
        assert s.check() == sat
        m = s.model()
        assert m[lmin] == 3
        assert m[lmax] == 5

    def test_stability_style_constraint(self):
        """L + alpha*(J) <= beta with L=Lmin, J=Lmax-Lmin."""
        s = SolverEngine()
        lmin, lmax = Real("sl1"), Real("sl2")
        alpha = Fraction(3, 2)
        s.add(lmin >= 2, lmax >= lmin, lmax <= 10)
        s.add((1 - alpha) * lmin + alpha * lmax <= 8)
        assert s.check() == sat
        m = s.model()
        assert (1 - alpha) * m[lmin] + alpha * m[lmax] <= 8

    def test_incremental_add_after_check(self):
        s = SolverEngine()
        x = Real("ix")
        s.add(x >= 0)
        assert s.check() == sat
        s.add(x <= 5)
        assert s.check() == sat
        s.add(x >= 6)
        assert s.check() == unsat

    def test_model_before_check_raises(self):
        s = SolverEngine()
        with pytest.raises(SolverError):
            s.model()

    def test_model_evaluates_expressions(self):
        s = SolverEngine()
        x, y = Real("evx"), Real("evy")
        s.add(x == 2, y == 3)
        assert s.check() == sat
        m = s.model()
        assert m[x + 2 * y] == 8
        assert m.eval_bool(x + y <= 5) is True
        assert m.eval_bool(x + y < 5) is False

    def test_unsat_then_stays_unsat(self):
        s = SolverEngine()
        x = Real("ux")
        s.add(x >= 1, x <= 0)
        assert s.check() == unsat
        assert s.check() == unsat
