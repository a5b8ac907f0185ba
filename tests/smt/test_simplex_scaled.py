"""The scaled-integer simplex across scale growth.

``Simplex`` keeps beta and every bound as integers over one scale ``S``
that grows in the middle of things: when a bound with a new denominator
is converted, and inside ``check()`` when a tableau step would leave a
remainder.  A value read before the growth and used after it is the bug
this representation invites (it produced a wrong ``unsat`` in the
prototype), so these traces make growth happen at the awkward moments:

* bounds with *fresh prime denominators* (1/7, 1/11, 1/13, ...) arrive
  only after marks were taken, so ``undo_to`` crosses the rescale and has
  to restore bounds parked in the old scale;
* rows carry Table I-style weights (7/20, 13/20, 3/8), so pivots divide
  by 7, 13, 3 and the scale grows inside ``check()``;
* in the ``registered`` variant every bound is converted up front and
  multiplied up at assert time — the theory's own pattern.

Every step is compared with the frozen dict-of-``Fraction`` tableau of
``test_simplex_fraction_free``: verdicts, explanations in order, rows,
``value()`` of every variable, both bounds and their literals, and the
engine's own invariants.  The last test goes through ``Session``: atoms
with new denominators registered between checks, propagation on against
off against a fresh solver.
"""

import functools
import random
from fractions import Fraction

import pytest

from repro.api import Session
from repro.smt import DeltaRational, Implies, Bool, Not, Or, Real

from .scaled import scaled
from .test_simplex_fraction_free import (
    CheckedSimplex,
    _RefTableau,
    _fraction_rows,
    representation_ok,
)

F = Fraction

TABLE1 = [F(7, 20), F(13, 20), F(3, 8), F(5, 8), F(-7, 20), F(-13, 20),
          F(1), F(-1)]
PRIMES = [7, 11, 13, 17, 19, 23, 29, 31]


def _trace(seed, n_ops=260, n_struct=4):
    """Seeded ops; a bound's denominator is ``fresh`` (the next unused
    prime) only while a mark is outstanding."""
    rng = random.Random(seed)
    n_vars = n_struct
    ops = []
    dens = [1, 4, 20]
    primes = list(PRIMES)
    open_marks = 0

    def row_op():
        nonlocal n_vars
        picked = rng.sample(range(n_vars), rng.randint(2, min(3, n_vars)))
        ops.append(("row", {v: rng.choice(TABLE1) for v in picked}))
        n_vars += 1

    for _ in range(3):
        row_op()
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.04 and n_vars < 11:
            row_op()
        elif r < 0.60:
            kind, shift = ("lower", -12) if r < 0.32 else ("upper", 12)
            if open_marks and primes and rng.random() < 0.25:
                dens.append(primes.pop(0))
                den = dens[-1]
            else:
                den = rng.choice(dens)
            ops.append((kind, rng.randrange(n_vars),
                        DeltaRational(F(rng.randint(-30, 30) + shift, den),
                                      rng.choice((-1, 0, 0, 1)))))
        elif r < 0.70:
            ops.append(("mark",))
            open_marks += 1
        elif r < 0.76:
            ops.append(("undo",))
            open_marks = max(0, open_marks - 1)
        else:
            ops.append(("check",))
    ops.append(("check",))
    return ops, n_struct


def _same_state(sx, ref):
    """Everything observable agrees, and the engine's invariants hold."""
    assert _fraction_rows(sx) == [
        None if row is None else list(row.items()) for row in ref.rows
    ]
    for var in range(len(ref.beta)):
        assert sx.value(var) == ref.beta[var], var
        assert sx.lower_bound(var) == ref.lower[var], var
        assert sx.upper_bound(var) == ref.upper[var], var
        assert sx.lower_literal(var) == ref.lower_lit[var], var
        assert sx.upper_literal(var) == ref.upper_lit[var], var
    assert sx.assignment_consistent()
    assert sx.suspects_invariant_holds()
    assert sx.dirty_invariant_holds()


@functools.lru_cache(maxsize=None)
def _replay(seed, registered):
    """One trace through both engines in lock step; returns what grew."""
    ops, n_struct = _trace(seed)
    sx, ref = CheckedSimplex(), _RefTableau()
    for _ in range(n_struct):
        assert sx.new_var() == ref.new_var()
    # The theory's pattern: convert at registration, remember the scale,
    # multiply up when asserting.
    converted = {}
    if registered:
        for i, op in enumerate(ops):
            if op[0] in ("lower", "upper"):
                converted[i] = (scaled(sx, op[2]), sx.scale)
    marks = []
    lit = 2
    grew = {"assert": 0, "check": 0, "undo_across": 0, "conflicts": 0}

    def backjump():
        sx_mark, ref_mark, scale_then = marks.pop() if marks else (0, 0, 1)
        if sx.mark() > sx_mark and scale_then != sx.scale:
            grew["undo_across"] += 1
        sx.undo_to(sx_mark)
        ref.undo_to(ref_mark)

    for i, op in enumerate(ops):
        kind = op[0]
        before = sx.scale
        if kind == "row":
            assert sx.add_row(op[1]) == ref.add_row(op[1])
            assert representation_ok(sx)
        elif kind in ("lower", "upper"):
            _, var, bound = op
            if registered:
                (r, d), scale_then = converted[i]
                k = sx.scale // scale_then
                pair = (r * k, d * k)
            else:
                pair = scaled(sx, bound)
                grew["assert"] += sx.scale != before
            got = getattr(sx, "assert_" + kind)(var, pair, lit)
            want = getattr(ref, "assert_" + kind)(var, bound, lit)
            lit += 2
            assert got == want
            if got is not None:
                backjump()
        elif kind == "mark":
            marks.append((sx.mark(), ref.mark(), sx.scale))
        elif kind == "undo":
            if marks:
                backjump()
        else:
            got, want = sx.check(), ref.check()
            grew["check"] += sx.scale != before
            assert got == want            # same literals, same order
            if got is None:
                assert sx.bounds_satisfied()
            else:
                grew["conflicts"] += 1
                backjump()
        _same_state(sx, ref)
    return sx, grew


@pytest.mark.parametrize("registered", (False, True),
                         ids=("converted-at-assert", "registered-up-front"))
@pytest.mark.parametrize("seed", range(12))
def test_same_search_across_rescales(seed, registered):
    _replay(seed, registered)


def test_traces_rescale_at_the_awkward_moments():
    """Not vacuous: the scale grows at asserts made after marks, grows
    inside check(), and undo crosses both.  The growth is by least
    factors: eight primes and a dozen rows of awkward weights leave a
    scale of 50-210 bits, where a product instead of an lcm anywhere
    would leave thousands."""
    totals = {"assert": 0, "check": 0, "undo_across": 0, "conflicts": 0}
    for seed in range(12):
        for registered in (False, True):
            sx, grew = _replay(seed, registered)
            for key, n in grew.items():
                totals[key] += n
            assert sx.scale.bit_length() <= 320, (seed, sx.scale)
    assert totals["assert"] >= 80
    assert totals["check"] >= 150
    assert totals["undo_across"] >= 200
    assert totals["conflicts"] >= 80


def test_undo_restores_a_bound_parked_before_a_rescale_by_hand():
    sx = CheckedSimplex()
    x = sx.new_var()
    assert sx.assert_upper(x, sx.scaled_bound(F(5, 4)), 2) is None
    mark = sx.mark()
    # 1/7 is new to the scale: S goes 4 -> 28 under the parked 5/4.
    assert sx.assert_upper(x, sx.scaled_bound(F(1, 7)), 4) is None
    assert sx.scale == 28
    assert sx.upper_bound(x) == DeltaRational(F(1, 7))
    sx.undo_to(mark)
    assert sx.upper_bound(x) == DeltaRational(F(5, 4))
    assert sx.scaled_bounds(x) == (None, (35, 0))
    assert sx.upper_literal(x) == 2


def test_pivot_grows_the_scale_before_it_divides_by_hand():
    """s = 13/20*lmin + 7/20*lmax, s >= 1 with lmin pinned at 0:
    lmax = 20/7, which a scale of 1 cannot hold."""
    sx = CheckedSimplex()
    lmin, lmax = sx.new_var(), sx.new_var()
    s = sx.add_row({lmin: F(13, 20), lmax: F(7, 20)})
    assert sx.assert_upper(lmin, sx.scaled_bound(0), 2) is None
    assert sx.assert_lower(s, sx.scaled_bound(1), 4) is None
    assert sx.scale == 1
    assert sx.check() is None
    assert sx.scale == 7
    assert sx.value(lmax) == DeltaRational(F(20, 7))
    assert sx.lower_bound(s) == DeltaRational(1)
    assert sx.assignment_consistent() and sx.bounds_satisfied()
    assert sx.model() == [F(0), F(20, 7), F(1)]


# ---------------------------------------------------------------------------
# Through the theory: atoms with new denominators registered between checks
# ---------------------------------------------------------------------------


def _episode(seed):
    """push / add / check / pop steps over guarded arithmetic clauses.

    Each batch of clauses brings a denominator no earlier batch had, and
    general atoms carry Table I weights, so both engines' scales grow
    between checks and the simplex's grows inside them.
    """
    rng = random.Random(seed)
    xs = [Real(f"sc{seed}_x{i}") for i in range(4)]
    guards = [Bool(f"sc{seed}_g{i}") for i in range(4)]
    dens = [1, 4]
    primes = list(PRIMES)
    steps = []
    depth = 0

    def atom():
        rhs = F(rng.randint(-12, 12), rng.choice(dens))
        kind = rng.random()
        if kind < 0.45:
            a, b = rng.sample(range(len(xs)), 2)
            out = xs[a] - xs[b] <= rhs
        elif kind < 0.70:
            out = xs[rng.randrange(len(xs))] <= rhs
        else:
            a, b = rng.sample(range(len(xs)), 2)
            w = rng.choice((F(7, 20), F(3, 8), F(13, 20)))
            out = xs[a] * (1 - w) + xs[b] * w <= rhs
        return Not(out) if rng.random() < 0.4 else out

    for _ in range(10):
        r = rng.random()
        if r < 0.3:
            steps.append(("push",))
            depth += 1
        elif r < 0.45 and depth:
            steps.append(("pop",))
            depth -= 1
        if primes:
            dens.append(primes.pop(0))
        for _ in range(rng.randint(2, 4)):
            clause = Or(*(atom() for _ in range(rng.randint(1, 2))))
            if rng.random() < 0.5:
                clause = Implies(rng.choice(guards), clause)
            steps.append(("add", clause))
        steps.append(("check", tuple(
            g for g in guards if rng.random() < 0.5)))
    return steps


def _simplex_scale(session):
    return session._backend.engine._theory.simplex.scale


@pytest.mark.parametrize("seed", range(16))
def test_session_agrees_across_rescales(seed):
    on = Session()
    off = Session(theory_propagation=False)
    frames = [[]]
    for step in _episode(seed):
        if step[0] == "push":
            on.push(), off.push()
            frames.append([])
        elif step[0] == "pop":
            on.pop(), off.pop()
            frames.pop()
        elif step[0] == "add":
            on.add(step[1]), off.add(step[1])
            frames[-1].append(step[1])
        else:
            active = [c for frame in frames for c in frame]
            fresh = Session().add(*active)
            outcomes = [s.check(*step[1]) for s in (on, off, fresh)]
            assert len({str(o.status) for o in outcomes}) == 1, outcomes
            for outcome in outcomes:
                if outcome == "sat":
                    for clause in active + list(step[1]):
                        assert outcome.model.eval_bool(clause), clause


def test_session_episodes_do_rescale():
    """Not vacuous: the persistent solver's simplex scale grows while
    atoms register and again inside its checks."""
    at_add = in_check = 0
    for seed in range(16):
        session = Session()
        for step in _episode(seed):
            before = _simplex_scale(session)
            if step[0] == "push":
                session.push()
            elif step[0] == "pop":
                session.pop()
            elif step[0] == "add":
                session.add(step[1])
                at_add += _simplex_scale(session) != before
            else:
                session.check(*step[1])
                in_check += _simplex_scale(session) != before
    assert at_add >= 40
    assert in_check >= 10
