"""Property tests for the array-based, integer-row simplex.

Seeded random bound sequences, interleaved with ``mark``/``undo_to``
backtracking and ``check()`` calls, must preserve the engine's internal
invariants at every step:

* ``assignment_consistent()`` — beta satisfies every tableau row (the
  tableau is never undone, so this must hold unconditionally);
* ``suspects_invariant_holds()`` — every bound-violating *basic* variable
  is in the suspect set (else ``check()`` could miss a violation);
* ``dirty_invariant_holds()`` — every out-of-bounds *nonbasic* variable is
  marked for lazy repair;
* after a successful ``check()``, ``bounds_satisfied()``.

Every trace runs over small integer coefficients and again over Table
I-style stability weights (7/20, 13/20, 3/8, ...), where rows carry a
denominator and pivots land on non-unit entries.
"""

import random
from fractions import Fraction

import pytest

from repro.smt import DeltaRational, Simplex

from .scaled import assert_lower, assert_upper


def dr(x, d=0):
    return DeltaRational(Fraction(x), Fraction(d))


def _small_int(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3))


def _table1_weight(rng: random.Random) -> Fraction:
    return rng.choice((Fraction(7, 20), Fraction(13, 20), Fraction(3, 8),
                       Fraction(-5, 8), Fraction(-7, 20), Fraction(2, 3)))


def _build(rng: random.Random, coeff=_small_int):
    """A simplex with a few structural vars and random rows."""
    sx = Simplex()
    xs = [sx.new_var() for _ in range(4)]
    rows = []
    for _ in range(3):
        coeffs = {
            x: coeff(rng)
            for x in rng.sample(xs, rng.randint(2, 3))
        }
        coeffs = {x: c for x, c in coeffs.items() if c}
        if coeffs:
            rows.append(sx.add_row(coeffs))
    return sx, xs + rows


def _random_trace(seed: int, n_ops: int = 120):
    """Deterministic op sequence: (kind, *args) tuples."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.35:
            ops.append(("lower", rng.randrange(7), rng.randint(-8, 8),
                        rng.choice((-1, 0, 1))))
        elif r < 0.70:
            ops.append(("upper", rng.randrange(7), rng.randint(-8, 8),
                        rng.choice((-1, 0, 1))))
        elif r < 0.80:
            ops.append(("mark",))
        elif r < 0.90:
            ops.append(("undo",))
        else:
            ops.append(("check",))
    return ops


def _run_trace(sx, variables, ops):
    """Replay ops, asserting the invariants after each one."""
    marks = []
    lit = 2
    for op in ops:
        if op[0] in ("lower", "upper"):
            _, vi, bound, delta = op
            var = variables[vi % len(variables)]
            fn = assert_lower if op[0] == "lower" else assert_upper
            conflict = fn(sx, var, dr(bound, delta), lit)
            lit += 2
            if conflict is not None and marks:
                # A conflicting assertion is normally followed by a
                # backjump; emulate the DPLL(T) caller.
                sx.undo_to(marks.pop())
        elif op[0] == "mark":
            marks.append(sx.mark())
        elif op[0] == "undo":
            if marks:
                sx.undo_to(marks.pop())
        else:
            conflict = sx.check()
            if conflict is None:
                assert sx.bounds_satisfied()
            elif marks:
                sx.undo_to(marks.pop())
        assert sx.assignment_consistent()
        assert sx.suspects_invariant_holds()
        assert sx.dirty_invariant_holds()


def _check_invariants_under_random_backtracking(seed, coeff):
    rng = random.Random(seed)
    sx, variables = _build(rng, coeff)
    ops = _random_trace(seed)
    _run_trace(sx, variables, ops)
    # A final full check must land on a consistent, in-bounds assignment
    # (or report a conflict — either way invariants hold afterwards).
    conflict = sx.check()
    assert sx.assignment_consistent()
    if conflict is None:
        assert sx.bounds_satisfied()
    return sx


@pytest.mark.parametrize("seed", range(8))
def test_invariants_under_random_backtracking(seed):
    _check_invariants_under_random_backtracking(seed, _small_int)


@pytest.mark.parametrize("seed", range(8))
def test_invariants_with_table1_weights(seed):
    sx = _check_invariants_under_random_backtracking(seed, _table1_weight)
    assert any(den != 1 for den in sx._dens)


def test_suspect_survives_conflict_then_relaxation():
    """A var still violating after an undo stays in the suspect set.

    The violated lower bound on the slack is asserted *before* the mark,
    so undoing the conflicting upper bounds relaxes the blockers but
    leaves the slack out of bounds — the suspect-set invariant must keep
    it scheduled for repair or a later check() would wrongly pass.
    """
    sx = Simplex()
    x, y = sx.new_var(), sx.new_var()
    s = sx.add_row({x: Fraction(1), y: Fraction(1)})
    assert assert_lower(sx, s, dr(3), 2) is None
    m1 = sx.mark()
    assert assert_upper(sx, x, dr(0), 4) is None
    assert assert_upper(sx, y, dr(0), 6) is None
    assert sx.check() is not None          # 3 <= s = x + y <= 0
    sx.undo_to(m1)
    # x/y relaxed; s >= 3 survives and beta(s) still violates it.
    assert sx.suspects_invariant_holds()
    assert sx.check() is None              # pivot repairs s via x or y
    assert sx.bounds_satisfied()
    assert sx.assignment_consistent()
