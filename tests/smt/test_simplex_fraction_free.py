"""The fraction-free tableau against a frozen dict-of-``Fraction`` one.

``Simplex`` stores a row as integer numerators over one positive
denominator.  The paper's benches are ~all ±1 coefficients, so the
``den != 1`` paths (scaling a row onto a common denominator, gcd
reduction, ``add_row`` through a basic variable with a denominator)
hardly run there.  These tests drive them on purpose, with Table I-style
stability coefficients (7/20, 13/20, 3/8, mixed signs), and require the
engine to be *the same search* as a plain ``Fraction`` tableau:

* equal verdicts and equal conflict explanations **in equal order**;
* equal ``value(v)`` for every variable after every ``check``;
* ``Fraction(num, den)`` of every row entry equal to the reference's
  coefficient, in the same dict order;
* after every pivot: numerators are ``int``, ``den > 0``,
  ``gcd(den, *row) == 1``, no zero entry, ``_cols`` mirrors ``_rows``.

``_RefTableau`` below is frozen: it is the reference these tests compare
against, not a second implementation to keep in step with ``Simplex``.
"""

import functools
import random
from fractions import Fraction
from math import gcd

import pytest

from repro.smt import DeltaRational, Simplex
from repro.smt.simplex import NO_LIT

from .scaled import assert_lower, assert_upper

F = Fraction

#: Table I-style stability weights ((1-a), a) and a few awkward extras.
COEFFS = [F(7, 20), F(13, 20), F(3, 8), F(5, 8), F(-7, 20), F(-3, 8),
          F(1), F(-1), F(2, 3), F(-5, 6)]


class _RefTableau:
    """General simplex with Bland's rule over ``Dict[int, Fraction]`` rows.

    No heap, no suspect or dirty sets, no split beta: violations are found
    by scanning every variable, which is what those structures must be
    equivalent to.  Row dicts are built with the same insertion order as
    the engine, because conflict explanations follow row order.
    """

    def __init__(self):
        self.lower, self.upper = [], []
        self.lower_lit, self.upper_lit = [], []
        self.beta = []
        self.rows = []              # Dict[int, Fraction] when basic, else None
        self.trail = []

    def new_var(self):
        self.lower.append(None)
        self.upper.append(None)
        self.lower_lit.append(NO_LIT)
        self.upper_lit.append(NO_LIT)
        self.beta.append(DeltaRational(0))
        self.rows.append(None)
        return len(self.beta) - 1

    def add_row(self, coeffs):
        expanded = {}
        for var, coeff in coeffs.items():
            if coeff == 0:
                continue
            if self.rows[var] is not None:
                for v2, c2 in self.rows[var].items():
                    expanded[v2] = expanded.get(v2, F(0)) + coeff * c2
            else:
                expanded[var] = expanded.get(var, F(0)) + coeff
        expanded = {v: c for v, c in expanded.items() if c != 0}
        s = self.new_var()
        self.rows[s] = expanded
        self.beta[s] = self._row_value(s)
        return s

    def _row_value(self, basic):
        total = DeltaRational(0)
        for v, c in self.rows[basic].items():
            total = total + self.beta[v] * c
        return total

    def mark(self):
        return len(self.trail)

    def undo_to(self, mark):
        while len(self.trail) > mark:
            var, is_lower, bound, lit = self.trail.pop()
            if is_lower:
                self.lower[var], self.lower_lit[var] = bound, lit
            else:
                self.upper[var], self.upper_lit[var] = bound, lit

    def assert_lower(self, var, bound, lit):
        up = self.upper[var]
        if up is not None and bound > up:
            return [l for l in (lit, self.upper_lit[var]) if l != NO_LIT]
        self.trail.append((var, True, self.lower[var], self.lower_lit[var]))
        if self.lower[var] is None or bound > self.lower[var]:
            self.lower[var], self.lower_lit[var] = bound, lit
        return None

    def assert_upper(self, var, bound, lit):
        lo = self.lower[var]
        if lo is not None and bound < lo:
            return [l for l in (lit, self.lower_lit[var]) if l != NO_LIT]
        self.trail.append((var, False, self.upper[var], self.upper_lit[var]))
        if self.upper[var] is None or bound < self.upper[var]:
            self.upper[var], self.upper_lit[var] = bound, lit
        return None

    def _below(self, var):
        return self.lower[var] is not None and self.beta[var] < self.lower[var]

    def _above(self, var):
        return self.upper[var] is not None and self.beta[var] > self.upper[var]

    def _can_increase(self, var):
        return self.upper[var] is None or self.beta[var] < self.upper[var]

    def _can_decrease(self, var):
        return self.lower[var] is None or self.beta[var] > self.lower[var]

    def check(self):
        n = len(self.beta)
        for var in range(n):
            if self.rows[var] is None:
                if self._below(var):
                    self._update(var, self.lower[var])
                elif self._above(var):
                    self._update(var, self.upper[var])
        while True:
            for basic in range(n):
                if self.rows[basic] is not None and (
                        self._below(basic) or self._above(basic)):
                    break
            else:
                return None
            below = self._below(basic)
            candidates = [
                v for v, c in self.rows[basic].items()
                if (self._can_increase(v) if (c > 0) == below
                    else self._can_decrease(v))
            ]
            if not candidates:
                return self._explain(basic, below)
            target = self.lower[basic] if below else self.upper[basic]
            self._pivot_and_update(basic, min(candidates), target)

    def _explain(self, basic, below):
        lits = [self.lower_lit[basic] if below else self.upper_lit[basic]]
        for v, c in self.rows[basic].items():
            blocked_above = (c > 0) == below
            lits.append(self.upper_lit[v] if blocked_above
                        else self.lower_lit[v])
        out = []
        for l in lits:
            if l != NO_LIT and l not in out:
                out.append(l)
        return out

    def _update(self, nonbasic, value):
        delta = value - self.beta[nonbasic]
        self.beta[nonbasic] = value
        for basic, row in enumerate(self.rows):
            if row is not None and nonbasic in row:
                self.beta[basic] = self.beta[basic] + delta * row[nonbasic]

    def _pivot_and_update(self, basic, nonbasic, value):
        row = self.rows[basic]
        self.rows[basic] = None
        inv_a = 1 / row[nonbasic]
        new_row = {basic: inv_a}
        for v, c in row.items():
            if v != nonbasic:
                new_row[v] = -c * inv_a
        theta = (value - self.beta[basic]) * inv_a
        self.beta[basic] = value
        self.beta[nonbasic] = self.beta[nonbasic] + theta
        for b, brow in enumerate(self.rows):
            if brow is not None and nonbasic in brow:
                self.beta[b] = self.beta[b] + theta * brow[nonbasic]
        self.rows[nonbasic] = new_row
        for b, brow in enumerate(self.rows):
            if brow is None or b == nonbasic or nonbasic not in brow:
                continue
            k = brow.pop(nonbasic)
            for v, c in new_row.items():
                nc = brow.get(v, F(0)) + k * c
                if nc == 0:
                    brow.pop(v, None)
                else:
                    brow[v] = nc


def representation_ok(sx):
    """The integer-row invariants; raises AssertionError naming the row."""
    for basic, row in enumerate(sx._rows):
        den = sx._dens[basic]
        if row is None:
            assert not sx._is_basic[basic] and den == 1, basic
            continue
        assert sx._is_basic[basic], basic
        assert type(den) is int and den > 0, (basic, den)
        assert all(type(n) is int and n != 0 for n in row.values()), (basic, row)
        assert gcd(den, *row.values()) == 1, (basic, den, row)
        assert not any(sx._is_basic[v] for v in row), (basic, row)
    for var, users in enumerate(sx._cols):
        expected = {b for b, row in enumerate(sx._rows)
                    if row is not None and var in row}
        assert users == expected, (var, users, expected)
    return True


class CheckedSimplex(Simplex):
    """``Simplex`` that checks the representation after every pivot."""

    def __init__(self):
        super().__init__()
        self.nonunit_pivots = 0

    def _pivot_and_update(self, basic, nonbasic, value):
        if self._dens[basic] != 1 or abs(self._rows[basic][nonbasic]) != 1:
            self.nonunit_pivots += 1
        super()._pivot_and_update(basic, nonbasic, value)
        assert representation_ok(self)


def _fraction_rows(sx):
    """The engine's rows as the coefficient dicts a Fraction tableau holds."""
    return [
        None if row is None
        else [(v, F(n, sx._dens[basic])) for v, n in row.items()]
        for basic, row in enumerate(sx._rows)
    ]


def _trace(seed, n_ops=240, n_struct=5):
    """Seeded ops over a growing variable set: (kind, *args) tuples.

    Rows are added mid-trace too, after pivots have made structural
    variables basic, so ``add_row`` expands through rows that carry a
    denominator.
    """
    rng = random.Random(seed)
    n_vars = n_struct
    ops = []

    def row_op():
        nonlocal n_vars
        picked = rng.sample(range(n_vars), rng.randint(2, min(4, n_vars)))
        ops.append(("row", {v: rng.choice(COEFFS) for v in picked}))
        n_vars += 1

    for _ in range(3):
        row_op()
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.06 and n_vars < 14:
            row_op()
        elif r < 0.62:
            # Lower bounds lean low and upper bounds high, so most checks
            # are feasible only after pivoting and some are not at all.
            kind, shift = ("lower", -15) if r < 0.34 else ("upper", 15)
            ops.append((kind, rng.randrange(n_vars),
                        F(rng.randint(-40, 40) + shift,
                          rng.choice((1, 4, 8, 20))),
                        rng.choice((-1, 0, 0, 1))))
        elif r < 0.70:
            ops.append(("mark",))
        elif r < 0.76:
            ops.append(("undo",))
        else:
            ops.append(("check",))
    ops.append(("check",))
    return ops, n_struct


@functools.lru_cache(maxsize=None)
def _replay(seed):
    """Run one trace through both engines in lock step (once per seed)."""
    ops, n_struct = _trace(seed)
    sx, ref = CheckedSimplex(), _RefTableau()
    for _ in range(n_struct):
        assert sx.new_var() == ref.new_var()
    marks = []
    lit = 2
    conflicts = 0

    def backjump():
        # Like the DPLL(T) caller: to the last mark, else drop every bound.
        sx_mark, ref_mark = marks.pop() if marks else (0, 0)
        sx.undo_to(sx_mark)
        ref.undo_to(ref_mark)

    for op in ops:
        kind = op[0]
        if kind == "row":
            assert sx.add_row(op[1]) == ref.add_row(op[1])
            assert representation_ok(sx)
        elif kind in ("lower", "upper"):
            _, var, bound, delta = op
            bound = DeltaRational(bound, delta)
            got = (assert_lower if kind == "lower" else assert_upper)(
                sx, var, bound, lit)
            want = getattr(ref, "assert_" + kind)(var, bound, lit)
            lit += 2
            assert got == want
            if got is not None:
                backjump()
        elif kind == "mark":
            marks.append((sx.mark(), ref.mark()))
        elif kind == "undo":
            if marks:
                backjump()
        else:
            got, want = sx.check(), ref.check()
            assert got == want            # same literals, same order
            for var in range(len(ref.beta)):
                assert sx.value(var) == ref.beta[var], var
            if got is None:
                assert sx.bounds_satisfied()
            else:
                conflicts += 1
                backjump()
        assert _fraction_rows(sx) == [
            None if row is None else list(row.items()) for row in ref.rows
        ]
        assert sx.assignment_consistent()
    return sx, conflicts


@pytest.mark.parametrize("seed", range(12))
def test_same_search_as_fraction_tableau(seed):
    _replay(seed)


def test_traces_reach_the_denominator_paths():
    """The traces above are not vacuous: they pivot on non-unit entries,
    leave rows with a denominator behind, and end in conflicts."""
    nonunit = with_den = conflicts = pivots = 0
    for seed in range(12):
        sx, n_conflicts = _replay(seed)
        nonunit += sx.nonunit_pivots
        pivots += sx.pivots
        conflicts += n_conflicts
        with_den += sum(1 for den in sx._dens if den != 1)
    assert pivots >= 250
    assert nonunit >= pivots // 2
    assert with_den >= 50
    assert conflicts >= 24


def test_pivot_on_table1_weights_by_hand():
    """s = 13/20*lmin + 7/20*lmax, pivoted on the 7/20 entry."""
    sx = CheckedSimplex()
    lmin, lmax = sx.new_var(), sx.new_var()
    s = sx.add_row({lmin: F(13, 20), lmax: F(7, 20)})
    assert (sx._rows[s], sx._dens[s]) == ({lmin: 13, lmax: 7}, 20)
    assert assert_upper(sx, lmin, DeltaRational(0), 2) is None
    assert assert_lower(sx, s, DeltaRational(F(7, 2)), 4) is None
    assert sx.check() is None
    # lmin is pinned from above at 0, so lmax had to enter:
    # lmax = (20*s - 13*lmin) / 7.
    assert sx.pivots == 1 and sx.nonunit_pivots == 1
    assert (sx._rows[lmax], sx._dens[lmax]) == ({s: 20, lmin: -13}, 7)
    assert sx.value(lmax) == DeltaRational(10)
    # A second row through the now-basic lmax inherits its denominator.
    t = sx.add_row({lmax: F(3, 8), lmin: F(-3, 8)})
    assert (sx._rows[t], sx._dens[t]) == ({s: 15, lmin: -15}, 14)
    assert sx.value(t) == DeltaRational(F(15, 4))
    # Blocked: t <= 3 needs s < 7/2 or lmin > 0.
    assert assert_upper(sx, t, DeltaRational(3), 6) is None
    assert sx.check() == [6, 4, 2]


def test_substitution_reduces_a_row_back_to_lowest_terms():
    """(x + y)/2 with y := 2d + x is (2x + 2d)/2: den must fall back to 1."""
    sx = CheckedSimplex()
    x, y = sx.new_var(), sx.new_var()
    s = sx.add_row({x: F(1, 2), y: F(1, 2)})
    d = sx.add_row({y: F(1, 2), x: F(-1, 2)})
    assert (sx._rows[s], sx._dens[s]) == ({x: 1, y: 1}, 2)
    # x cannot decrease, so d >= 1 brings y into the basis: y = 2d + x.
    assert assert_lower(sx, x, DeltaRational(0), 2) is None
    assert assert_lower(sx, d, DeltaRational(1), 4) is None
    assert sx.check() is None
    assert (sx._rows[y], sx._dens[y]) == ({d: 2, x: 1}, 1)
    assert (sx._rows[s], sx._dens[s]) == ({x: 1, d: 1}, 1)
    assert sx.value(s) == DeltaRational(1)
