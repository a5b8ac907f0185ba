"""Tests for the exact rational simplex, incl. a scipy.linprog oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.smt import DeltaRational, Simplex

from .scaled import assert_lower, assert_upper


def dr(x, d=0):
    return DeltaRational(x, d)


class TestBounds:
    def test_simple_feasible(self):
        sx = Simplex()
        x = sx.new_var()
        assert assert_lower(sx, x, dr(1), 2) is None
        assert assert_upper(sx, x, dr(3), 4) is None
        assert sx.check() is None
        assert dr(1) <= sx.value(x) <= dr(3)

    def test_contradicting_bounds(self):
        sx = Simplex()
        x = sx.new_var()
        assert assert_lower(sx, x, dr(5), 2) is None
        conflict = assert_upper(sx, x, dr(3), 4)
        assert set(conflict) == {2, 4}

    def test_strict_bounds_feasible(self):
        sx = Simplex()
        x = sx.new_var()
        assert assert_lower(sx, x, dr(1, 1), 2) is None  # x > 1
        assert assert_upper(sx, x, dr(1 + 2, -1), 4) is None  # x < 3
        assert sx.check() is None
        model = sx.model()
        assert 1 < model[x] < 3

    def test_strict_empty_interval(self):
        sx = Simplex()
        x = sx.new_var()
        assert assert_lower(sx, x, dr(1, 1), 2) is None  # x > 1
        conflict = assert_upper(sx, x, dr(1), 4)  # x <= 1
        assert conflict is not None


class TestRows:
    def test_sum_row(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: Fraction(1), y: Fraction(1)})  # s = x + y
        assert assert_lower(sx, x, dr(1), 2) is None
        assert assert_lower(sx, y, dr(2), 4) is None
        assert assert_upper(sx, s, dr(2), 6) is not None or sx.check() is not None

    def test_difference_chain_conflict(self):
        sx = Simplex()
        x, y, z = (sx.new_var() for _ in range(3))
        d1 = sx.add_row({x: Fraction(1), y: Fraction(-1)})  # x - y
        d2 = sx.add_row({y: Fraction(1), z: Fraction(-1)})  # y - z
        d3 = sx.add_row({x: Fraction(1), z: Fraction(-1)})  # x - z
        assert assert_lower(sx, d1, dr(1), 2) is None  # x - y >= 1
        assert assert_lower(sx, d2, dr(1), 4) is None  # y - z >= 1
        res = assert_upper(sx, d3, dr(1), 6)  # x - z <= 1
        if res is None:
            res = sx.check()
        assert res is not None
        assert set(res) <= {2, 4, 6}
        assert 6 in set(res)

    def test_general_coefficients(self):
        sx = Simplex()
        lmin, lmax = sx.new_var(), sx.new_var()
        alpha = Fraction(3, 2)
        combo = sx.add_row({lmin: 1 - alpha, lmax: alpha})
        # Pin lmin exactly (upper bound too): otherwise growing lmin would
        # relax the combination, which has a negative lmin coefficient.
        assert assert_lower(sx, lmin, dr(10), 2) is None
        assert assert_upper(sx, lmin, dr(10), 3) is None
        assert assert_lower(sx, lmax, dr(12), 4) is None
        # (1-1.5)*10 + 1.5*12 = -5 + 18 = 13 > 12.9 -> conflict
        res = assert_upper(sx, combo, dr(Fraction(129, 10)), 6)
        if res is None:
            res = sx.check()
        assert res is not None

    def test_row_over_basic_variable_substitution(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s1 = sx.add_row({x: Fraction(1), y: Fraction(1)})
        # Second row mentions the (basic) slack s1 indirectly via x+y again.
        s2 = sx.add_row({x: Fraction(2), y: Fraction(2)})
        assert assert_upper(sx, s1, dr(1), 2) is None
        assert assert_lower(sx, s2, dr(4), 4) is None
        res = sx.check()
        assert res is not None

    def test_model_respects_rows(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: Fraction(1), y: Fraction(2)})
        assert_lower(sx, x, dr(1), 2)
        assert_upper(sx, y, dr(0), 4)
        assert_lower(sx, s, dr(-3), 6)
        assert sx.check() is None
        m = sx.model()
        assert m[s] == m[x] + 2 * m[y]


class TestBacktracking:
    def test_undo_bound(self):
        sx = Simplex()
        x = sx.new_var()
        assert assert_lower(sx, x, dr(0), 2) is None
        mark = sx.mark()
        assert assert_lower(sx, x, dr(10), 4) is None
        conflict = assert_upper(sx, x, dr(5), 6)
        assert conflict is not None
        sx.undo_to(mark)
        assert assert_upper(sx, x, dr(5), 6) is None
        assert sx.check() is None

    def test_pivots_survive_backtracking(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: Fraction(1), y: Fraction(1)})
        mark = sx.mark()
        assert_lower(sx, s, dr(2), 2)
        assert sx.check() is None
        sx.undo_to(mark)
        assert_upper(sx, s, dr(-2), 4)
        assert sx.check() is None
        assert sx.assignment_consistent()


@st.composite
def lp_problems(draw):
    n_vars = draw(st.integers(min_value=1, max_value=4))
    n_cons = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(n_cons):
        coeffs = [
            draw(st.integers(min_value=-3, max_value=3)) for _ in range(n_vars)
        ]
        rhs = draw(st.integers(min_value=-6, max_value=6))
        rows.append((coeffs, rhs))
    return n_vars, rows


@given(lp_problems())
@settings(max_examples=150, deadline=None)
def test_feasibility_matches_scipy_linprog(problem):
    """Conjunction of <= constraints: simplex verdict == scipy verdict."""
    n_vars, rows = problem
    sx = Simplex()
    xs = [sx.new_var() for _ in range(n_vars)]
    conflict = None
    for i, (coeffs, rhs) in enumerate(rows):
        nonzero = {xs[j]: Fraction(c) for j, c in enumerate(coeffs) if c != 0}
        if not nonzero:
            if rhs < 0:
                conflict = [0]
            continue
        if len(nonzero) == 1:
            (var, c), = nonzero.items()
            bound = Fraction(rhs) / c
            res = (
                assert_upper(sx, var, dr(bound), 2 * i + 2)
                if c > 0
                else assert_lower(sx, var, dr(bound), 2 * i + 2)
            )
        else:
            s = sx.add_row(nonzero)
            res = assert_upper(sx, s, dr(rhs), 2 * i + 2)
        if res is not None:
            conflict = res
            break
    if conflict is None:
        conflict = sx.check()
    ours_feasible = conflict is None

    a_ub = np.array([coeffs for coeffs, _ in rows], dtype=float)
    b_ub = np.array([rhs for _, rhs in rows], dtype=float)
    lp = linprog(
        c=np.zeros(n_vars),
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * n_vars,
        method="highs",
    )
    scipy_feasible = lp.status == 0
    assert ours_feasible == scipy_feasible

    if ours_feasible:
        model = sx.model()
        for coeffs, rhs in rows:
            total = sum(Fraction(c) * model[xs[j]] for j, c in enumerate(coeffs))
            assert total <= rhs


class TestTouchedBoundsHygiene:
    """Backjump hygiene of the propagation feed (regression: undone
    assertions used to leave their vars in ``touched_bounds``, so the
    next propagate() fixpoint rescanned watches against already-relaxed
    — possibly ``NO_LIT``-backed — bounds)."""

    def test_undo_removes_fresh_touch(self):
        sx = Simplex()
        v = sx.new_var()
        sx.watch_var(v)
        mark = sx.mark()
        assert assert_upper(sx, v, dr(5), lit=2) is None
        assert v in sx.touched_bounds
        sx.undo_to(mark)
        assert v not in sx.touched_bounds

    def test_undo_keeps_older_undrained_touch(self):
        sx = Simplex()
        v = sx.new_var()
        sx.watch_var(v)
        assert assert_upper(sx, v, dr(5), lit=2) is None  # touches v
        mark = sx.mark()
        assert assert_upper(sx, v, dr(3), lit=4) is None  # v already touched
        sx.undo_to(mark)
        # The pre-mark tightening has not been drained yet: it must
        # still be visible to the propagation layer.
        assert v in sx.touched_bounds

    def test_undo_after_drain_roundtrips_to_empty(self):
        sx = Simplex()
        v = sx.new_var()
        sx.watch_var(v)
        assert assert_upper(sx, v, dr(5), lit=2) is None
        sx.touched_bounds.clear()  # the propagate() drain
        mark = sx.mark()
        assert assert_upper(sx, v, dr(3), lit=4) is None
        assert v in sx.touched_bounds
        sx.undo_to(mark)
        assert sx.touched_bounds == set()

    def test_non_tightening_assert_never_pollutes_on_undo(self):
        sx = Simplex()
        v = sx.new_var()
        sx.watch_var(v)
        assert assert_upper(sx, v, dr(3), lit=2) is None
        sx.touched_bounds.clear()
        mark = sx.mark()
        # Weaker than the active bound: recorded on the trail but not a
        # tightening — undo must not disturb the (empty) touched set.
        assert assert_upper(sx, v, dr(10), lit=4) is None
        assert sx.touched_bounds == set()
        sx.undo_to(mark)
        assert sx.touched_bounds == set()

    def test_backjump_then_propagate_sees_no_stale_bounds(self):
        """Theory-level regression: after a backjump the propagation
        hook must find a clean touched set (previously it rescanned the
        undone vars against relaxed bounds)."""
        from repro.sat.literals import UNASSIGNED
        from repro.smt.terms import Real
        from repro.smt.theory import LraTheory

        x = Real("touched_regression_x")
        theory = LraTheory()
        theory.register_atom(x <= 5, sat_var=1)
        theory.register_atom(x <= 7, sat_var=2)
        assert theory.on_assert(2 * 1) is None  # assert x <= 5
        assert theory.simplex.touched_bounds != set()
        theory.on_backjump(0)
        assert theory.simplex.touched_bounds == set()
        assigns = [UNASSIGNED] * 3
        assert theory.propagate(assigns) == []
