"""Tests for the term language (linear normal form, formula builders)."""

import random
from fractions import Fraction

import pytest

from repro.api import NativeBackend, Session
from repro.core import SynthesisOptions, solve
from repro.errors import SolverError
from repro.eval.workloads import gm_case_study
from repro.smt import (
    And,
    Atom,
    Bool,
    BoolVal,
    ExactlyOne,
    Iff,
    Implies,
    Not,
    Or,
    Real,
    RealVal,
    Sum,
)
from repro.smt.solver import SolverEngine
from repro.smt.terms import (
    AndExpr,
    BoolConst,
    LinExpr,
    NotExpr,
    OrExpr,
    RealVar,
    deserialize_literal,
    serialize_literal,
)


class TestLinExpr:
    def test_variable_identity(self):
        assert Real("x").coeffs == Real("x").coeffs
        assert RealVar("x") is RealVar("x")

    def test_addition_merges_coefficients(self):
        x, y = Real("x"), Real("y")
        e = x + y + x
        assert e.coeffs[RealVar("x")] == 2
        assert e.coeffs[RealVar("y")] == 1

    def test_subtraction_cancels(self):
        x = Real("x")
        e = x - x
        assert e.is_constant()
        assert e.const == 0

    def test_scalar_multiplication(self):
        x = Real("x")
        e = 3 * x + 1
        assert e.coeffs[RealVar("x")] == 3
        assert e.const == 1

    def test_fraction_coefficients(self):
        x = Real("x")
        e = Fraction(1, 3) * x
        assert e.coeffs[RealVar("x")] == Fraction(1, 3)

    def test_division(self):
        x = Real("x")
        e = (2 * x) / 4
        assert e.coeffs[RealVar("x")] == Fraction(1, 2)

    def test_nonlinear_product_rejected(self):
        x, y = Real("x"), Real("y")
        with pytest.raises(SolverError):
            _ = x * y

    def test_evaluate(self):
        x, y = Real("x"), Real("y")
        e = 2 * x - y + 5
        val = e.evaluate({RealVar("x"): Fraction(3), RealVar("y"): Fraction(1)})
        assert val == 10

    def test_sum_helper(self):
        x, y = Real("x"), Real("y")
        e = Sum(x, y, 1, [x, 2])
        assert e.coeffs[RealVar("x")] == 2
        assert e.const == 3


# ---------------------------------------------------------------------------
# Seeded property test: LinExpr arithmetic against a naive reference
# ---------------------------------------------------------------------------

_COEFFS = [Fraction(1), Fraction(-1), Fraction(7, 20), Fraction(13, 20),
           Fraction(3, 8), Fraction(-5, 6)]
#: Constant operands of every accepted kind (floats go through
#: limit_denominator(10**12), so 0.35 means 7/20).
_CONSTANTS = [2, -1, 3, "7/20", "-5/6", "13/20", 0.375, 0.35, -2.0,
              Fraction(3, 8), Fraction(-5, 6), Fraction(13, 20)]


def _ref_const(value):
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


def _ref_strip(coeffs):
    return {name: c for name, c in coeffs.items() if c != 0}


def _ref_combine(a, b, sign):
    coeffs = dict(a[0])
    for name, c in b[0].items():
        coeffs[name] = coeffs.get(name, Fraction(0)) + sign * c
    return _ref_strip(coeffs), a[1] + sign * b[1]


def _ref_scale(a, k):
    return _ref_strip({n: c * k for n, c in a[0].items()}), a[1] * k


def _snapshot(expr):
    return dict(expr.coeffs), expr.const


def _assert_exact(value):
    """The representation rule: an integral value is an ``int``, any
    other one a ``Fraction``."""
    if type(value) is int:
        return
    assert type(value) is Fraction and value.denominator != 1, repr(value)


def _assert_matches(expr, ref):
    assert isinstance(expr, LinExpr)
    assert {v.name: c for v, c in expr.coeffs.items()} == ref[0]
    assert expr.const == ref[1]
    _assert_exact(expr.const)
    for c in expr.coeffs.values():
        _assert_exact(c)
        assert c != 0


class TestLinExprAgainstReference:
    """Random operator chains, checked after every step.

    The reference is a plain ``({name: Fraction}, Fraction)`` pair with
    zero entries stripped.  Every expression the chain ever produced or
    consumed is re-compared with its snapshot after every step, so an
    operation that writes into a coefficient dict it shares with an
    operand (adding a constant shares the dict) is caught.
    """

    STEPS = 40

    def _operand(self, rng, names):
        """``(operand, reference)`` of a random kind."""
        kind = rng.choice(("const", "const", "var", "expr", "expr"))
        if kind == "const":
            value = rng.choice(_CONSTANTS)
            return value, ({}, _ref_const(value))
        if kind == "var":
            name = rng.choice(names)
            return RealVar(name), ({name: Fraction(1)}, Fraction(0))
        picked = rng.sample(names, rng.randint(1, len(names)))
        coeffs = {name: rng.choice(_COEFFS) for name in picked}
        const = rng.choice(_COEFFS + [Fraction(0)])
        expr = LinExpr({RealVar(n): c for n, c in coeffs.items()}, const)
        return expr, (coeffs, const)

    @pytest.mark.parametrize("seed", range(25))
    def test_chain(self, seed):
        rng = random.Random(seed)
        names = [f"lp{seed}_{i}" for i in range(rng.randint(2, 6))]
        expr, ref = Real(names[0]), ({names[0]: Fraction(1)}, Fraction(0))
        history = [(expr, _snapshot(expr))]
        for _ in range(self.STEPS):
            op = rng.choice(("add", "radd", "sub", "rsub", "neg",
                             "mul", "rmul", "div"))
            if op == "neg":
                expr, ref = -expr, _ref_scale(ref, -1)
            elif op in ("mul", "rmul", "div"):
                k = rng.choice(_CONSTANTS)
                factor = _ref_const(k)
                if rng.random() < 0.25 and op != "div":
                    k = LinExpr.constant(k)     # constant as a LinExpr
                    history.append((k, _snapshot(k)))
                if op == "div":
                    expr, ref = expr / k, _ref_scale(ref, 1 / factor)
                else:
                    expr = expr * k if op == "mul" else k * expr
                    ref = _ref_scale(ref, factor)
            else:
                operand, operand_ref = self._operand(rng, names)
                if isinstance(operand, LinExpr):
                    history.append((operand, _snapshot(operand)))
                if op == "add":
                    expr, ref = expr + operand, _ref_combine(ref, operand_ref, 1)
                elif op == "radd":
                    expr, ref = operand + expr, _ref_combine(operand_ref, ref, 1)
                elif op == "sub":
                    expr, ref = expr - operand, _ref_combine(ref, operand_ref, -1)
                else:
                    expr, ref = operand - expr, _ref_combine(operand_ref, ref, -1)
            _assert_matches(expr, ref)
            history.append((expr, _snapshot(expr)))
            for old, snap in history:
                assert _snapshot(old) == snap, "an operand was modified"

    @pytest.mark.parametrize("seed", range(10))
    def test_cancelled_coefficients_fold_atoms(self, seed):
        rng = random.Random(1000 + seed)
        names = [f"lc{seed}_{i}" for i in range(rng.randint(2, 6))]
        coeffs = {RealVar(n): rng.choice(_COEFFS) for n in names}
        const = rng.choice(_COEFFS)
        expr = LinExpr(coeffs, const)
        # Remove one variable at a time, by + and by -: it must vanish.
        partial = expr
        for var, c in coeffs.items():
            partial = (partial - c * LinExpr.variable(var)
                       if rng.random() < 0.5
                       else partial + (-c) * LinExpr.variable(var))
            assert var not in partial.coeffs
        assert partial.is_constant() and partial.const == const
        # Two equal expressions built separately cancel to a constant, and
        # comparing them folds to a Boolean constant instead of an atom.
        twin = LinExpr(dict(coeffs), const)
        for strict, verdict in ((False, True), (True, False)):
            folded = Atom.build(expr - twin, strict)
            assert isinstance(folded, BoolConst) and folded.value is verdict
        assert (expr <= twin).value and (expr >= twin).value
        assert not (expr < twin).value and not (expr > twin + 1).value
        assert (expr - twin + 1 <= 0).value is False
        # One surviving variable still builds an atom.
        assert isinstance(expr <= twin + Real(names[0]), Atom)


def _fraction_spelling(rng, k, x):
    """``k * x`` for an integer ``k``, written through Fraction arithmetic."""
    half = Fraction(k, 2)
    return rng.choice((
        lambda: Fraction(k) * x,
        lambda: x * Fraction(3 * k, 3),
        lambda: (Fraction(k, 3) * x) * 3,          # integral product
        lambda: (x * (2 * k)) / 2,
        lambda: half * x + x * half,               # integral sum
        lambda: x * str(k),
        lambda: LinExpr({v: Fraction(k) for v in x.coeffs}),
    ))()


class TestExactRepresentation:
    """Integral coefficients and constants are ``int``s, whatever the
    spelling; the others are ``Fraction``s."""

    def test_float_coefficients_read_like_float_constants(self):
        # The public constructor used to wrap coefficients with a bare
        # Fraction(0.35) -- 3152519739159347/9007199254740992 -- while a
        # constant 0.35 and 0.35 * x both read 7/20: two spellings of
        # one constraint were two atoms, hence two SAT variables.
        x = Real("ex_x")
        var = RealVar("ex_x")
        spelled = LinExpr({var: 0.35})
        assert spelled.coeffs[var] == Fraction(7, 20)
        assert spelled.coeffs == (0.35 * x).coeffs
        assert LinExpr({var: 1}, 0.35).const == Fraction(7, 20)
        assert (spelled <= 1).key == (0.35 * x <= 1).key
        engine = SolverEngine()
        engine.add(Or(spelled <= 1, Bool("ex_b")))
        engine.add(Or(0.35 * x <= 1, Bool("ex_c")))
        assert len(engine._theory._atoms) == 1

    def test_integral_values_are_ints(self):
        x, y = Real("ex_x"), Real("ex_y")
        e = (Fraction(1, 2) * x + Fraction(1, 2) * x - y * "2") / 2 + 0.5
        assert [type(c) for c in e.coeffs.values()] == [Fraction, int]
        assert type(e.const) is Fraction
        e = e * 2
        assert [type(c) for c in e.coeffs.values()] == [int, int]
        assert type(e.const) is int
        atom = e + Fraction(3, 3) <= Fraction(4, 2)
        assert all(type(c) is int for _, c in atom.coeffs)
        assert type(atom.rhs) is int and atom.rhs == 0
        assert type(Real("ex_z").coeffs[RealVar("ex_z")]) is int

    @pytest.mark.parametrize("seed", range(20))
    def test_int_and_fraction_spellings_build_one_atom(self, seed):
        rng = random.Random(2600 + seed)
        names = [f"ex{seed}_{i}" for i in range(rng.randint(1, 4))]
        by_int, by_fraction = LinExpr.constant(0), LinExpr.constant(0)
        for name in names:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            by_int = by_int + k * Real(name)
            by_fraction = by_fraction + _fraction_spelling(rng, k, Real(name))
        const = rng.randint(-5, 5)
        strict = rng.random() < 0.5
        a = Atom.build(by_int - const, strict)
        b = Atom.build(by_fraction - Fraction(2 * const, 2), strict)
        assert isinstance(a, Atom) and isinstance(b, Atom)
        assert a.key == b.key and hash(a.key) == hash(b.key)
        assert serialize_literal(a, False) == serialize_literal(b, False)
        assert ([type(c) for _, c in b.coeffs] + [type(b.rhs)]
                == [int] * (len(names) + 1))

    def test_imported_atoms_look_like_local_ones(self):
        engine = SolverEngine()
        session = Session(backend=NativeBackend(engine=engine))
        # gm_case_study(10): 884 atoms (gm_case_study(3) registers 361
        # since frozen messages enter the stability rows as constants,
        # and gm_case_study(5) 375 since routes are encoded lazily).
        result = solve(gm_case_study(10),
                       SynthesisOptions(routes=3, stages=5), session=session)
        assert result.status == "sat"
        atoms = [o for o in engine._cnf._origins.values()
                 if isinstance(o, Atom)]
        assert len(atoms) > 400
        for atom in atoms:
            wire = serialize_literal(atom, False)
            imported, negated = deserialize_literal(wire)
            assert not negated
            assert serialize_literal(imported, False) == wire
            assert imported.key == atom.key
            assert ([type(c) for _, c in imported.coeffs]
                    == [type(c) for _, c in atom.coeffs])
            assert type(imported.rhs) is type(atom.rhs)


class TestAtoms:
    def test_le_builds_atom(self):
        x, y = Real("x"), Real("y")
        a = x - y <= 3
        assert isinstance(a, Atom)
        assert not a.strict
        assert a.rhs == 3

    def test_lt_is_strict(self):
        x = Real("x")
        a = x < 2
        assert isinstance(a, Atom)
        assert a.strict

    def test_ge_normalizes_to_le(self):
        x, y = Real("x"), Real("y")
        a = x - y >= 3
        # Normalized to y - x <= -3.
        assert isinstance(a, Atom)
        coeffs = dict((v.name, c) for v, c in a.coeffs)
        assert coeffs == {"x": -1, "y": 1}
        assert a.rhs == -3

    def test_constant_comparison_folds(self):
        assert (RealVal(1) <= RealVal(2)) is BoolVal(True).__class__(True) or True
        a = RealVal(1) <= 2
        assert isinstance(a, BoolConst) and a.value
        b = RealVal(5) < 2
        assert isinstance(b, BoolConst) and not b.value

    def test_eq_builds_conjunction(self):
        x = Real("x")
        f = x == 3
        assert isinstance(f, AndExpr)

    def test_ne_builds_disjunction(self):
        x = Real("x")
        f = x != 3
        assert isinstance(f, OrExpr)

    def test_atom_key_dedup(self):
        x, y = Real("x"), Real("y")
        a1 = x - y <= 3
        a2 = x - y <= 3
        assert a1.key == a2.key

    def test_atom_evaluate(self):
        x = Real("x")
        a = x <= 3
        assert a.evaluate({RealVar("x"): Fraction(3)})
        s = x < 3
        assert not s.evaluate({RealVar("x"): Fraction(3)})


class TestBooleanBuilders:
    def test_and_flattens_and_folds(self):
        a, b = Bool("a"), Bool("b")
        f = And(a, And(b, True))
        assert isinstance(f, AndExpr)
        assert len(f.args) == 2

    def test_and_false_annihilates(self):
        a = Bool("a")
        f = And(a, False)
        assert isinstance(f, BoolConst) and not f.value

    def test_or_true_annihilates(self):
        a = Bool("a")
        f = Or(a, True)
        assert isinstance(f, BoolConst) and f.value

    def test_empty_and_is_true(self):
        f = And()
        assert isinstance(f, BoolConst) and f.value

    def test_empty_or_is_false(self):
        f = Or()
        assert isinstance(f, BoolConst) and not f.value

    def test_not_involution(self):
        a = Bool("a")
        assert Not(Not(a)) is a

    def test_implies_expands(self):
        a, b = Bool("a"), Bool("b")
        f = Implies(a, b)
        assert isinstance(f, OrExpr)

    def test_iff_expands(self):
        a, b = Bool("a"), Bool("b")
        f = Iff(a, b)
        assert isinstance(f, AndExpr)

    def test_single_arg_collapse(self):
        a = Bool("a")
        assert And(a) is a
        assert Or(a) is a

    def test_exactly_one_structure(self):
        a, b, c = Bool("a"), Bool("b"), Bool("c")
        f = ExactlyOne(a, b, c)
        assert isinstance(f, AndExpr)

    def test_operator_overloads(self):
        a, b = Bool("a"), Bool("b")
        assert isinstance(a & b, AndExpr)
        assert isinstance(a | b, OrExpr)
        assert isinstance(~a, NotExpr)

    def test_list_argument_flattening(self):
        bools = [Bool(f"v{i}") for i in range(3)]
        f = Or(bools)
        assert isinstance(f, OrExpr)
        assert len(f.args) == 3
