"""Term language for the SMT solver: Booleans and linear real arithmetic.

This module provides a z3py-flavoured expression API::

    x, y = Real("x"), Real("y")
    a, b = Bool("a"), Bool("b")
    f = Or(a, And(b, x - y >= 2), x + 3 * y <= Fraction(7, 2))

Arithmetic terms are kept in *linear normal form* at construction time: a
:class:`LinExpr` is a mapping ``variable -> Fraction coefficient`` plus a
constant.  Comparisons build :class:`Atom` leaves normalized to
``sum(coeffs) <= rhs`` or ``< rhs`` (negations of atoms are handled by the
theory layer, not by separate atom objects).

Following z3py, ``==`` on arithmetic expressions builds a formula (an
``And`` of two inequalities); term objects hash by identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union
from weakref import WeakValueDictionary

from ..errors import SolverError

Number = Union[int, Fraction, float, str]


def _to_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise SolverError(f"cannot interpret {value!r} as a rational constant")


_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# Arithmetic layer
# ---------------------------------------------------------------------------


class RealVar:
    """A real-valued SMT variable, identified by name.

    Interned weakly: a variable lives as long as something uses it, and
    while it lives every ``RealVar(name)`` returns that same object.
    """

    __slots__ = ("name", "__weakref__")
    _registry: WeakValueDictionary[str, RealVar] = WeakValueDictionary()

    def __new__(cls, name: str) -> "RealVar":
        existing = cls._registry.get(name)
        if existing is not None:
            return existing
        obj = object.__new__(cls)
        obj.name = name
        cls._registry[name] = obj
        return obj

    def __repr__(self) -> str:
        return f"RealVar({self.name!r})"


class LinExpr:
    """An affine expression ``sum(coeff * var) + const`` over the reals.

    Instances are immutable by convention: nothing writes to ``coeffs``
    after construction, so arithmetic results may *share* an operand's
    coefficient dict (adding a constant does).
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Mapping[RealVar, Fraction] | None = None,
                 const: Number = 0):
        self.coeffs: Dict[RealVar, Fraction] = {
            v: Fraction(c) for v, c in (coeffs or {}).items() if c != 0
        }
        self.const: Fraction = _to_fraction(const)

    @classmethod
    def _normal(cls, coeffs: Dict[RealVar, Fraction],
                const: Fraction) -> "LinExpr":
        """Wrap a dict of non-zero ``Fraction`` coefficients as it stands.

        The arithmetic below only ever produces normalised parts, so it
        skips the public constructor's re-wrapping and zero filtering.
        """
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.const = const
        return self

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def variable(var: RealVar) -> "LinExpr":
        return LinExpr._normal({var: _F1}, _F0)

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        return LinExpr._normal({}, _to_fraction(value))

    @staticmethod
    def coerce(value: "LinExpr | RealVar | Number") -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, RealVar):
            return LinExpr.variable(value)
        return LinExpr.constant(value)

    def is_constant(self) -> bool:
        return not self.coeffs

    @property
    def variables(self) -> Tuple[RealVar, ...]:
        return tuple(self.coeffs)

    # -- arithmetic ------------------------------------------------------------
    #
    # Coefficient order: the left operand's variables first, then the
    # right operand's new ones, cancelled entries dropped.

    def __add__(self, other) -> "LinExpr":
        if not isinstance(other, (LinExpr, RealVar)):
            return LinExpr._normal(self.coeffs,
                                   self.const + _to_fraction(other))
        other = LinExpr.coerce(other)
        const = self.const + other.const
        if not other.coeffs:
            return LinExpr._normal(self.coeffs, const)
        if not self.coeffs:
            return LinExpr._normal(other.coeffs, const)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            mine = coeffs.get(v)
            if mine is None:
                coeffs[v] = c
                continue
            total = mine + c
            if total:
                coeffs[v] = total
            else:
                del coeffs[v]
        return LinExpr._normal(coeffs, const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._normal({v: -c for v, c in self.coeffs.items()},
                               -self.const)

    def __sub__(self, other) -> "LinExpr":
        if not isinstance(other, (LinExpr, RealVar)):
            return LinExpr._normal(self.coeffs,
                                   self.const - _to_fraction(other))
        other = LinExpr.coerce(other)
        const = self.const - other.const
        if not other.coeffs:
            return LinExpr._normal(self.coeffs, const)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            mine = coeffs.get(v)
            if mine is None:
                coeffs[v] = -c
                continue
            total = mine - c
            if total:
                coeffs[v] = total
            else:
                del coeffs[v]
        return LinExpr._normal(coeffs, const)

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.coerce(other) - self

    def _scaled(self, k: Fraction) -> "LinExpr":
        if not k:
            return LinExpr._normal({}, _F0)
        return LinExpr._normal({v: c * k for v, c in self.coeffs.items()},
                               self.const * k)

    def __mul__(self, other) -> "LinExpr":
        if isinstance(other, (LinExpr, RealVar)):
            other = LinExpr.coerce(other)
            if other.is_constant():
                return self._scaled(other.const)
            if self.is_constant():
                return other._scaled(self.const)
            raise SolverError("non-linear product of two variable expressions")
        return self._scaled(_to_fraction(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LinExpr":
        k = _to_fraction(other)
        if k == 0:
            raise ZeroDivisionError("division of linear expression by zero")
        return self._scaled(1 / k)

    # -- comparisons build atoms/formulas ---------------------------------------

    def __le__(self, other) -> "BoolExpr":
        return Atom.build(self - other, strict=False)

    def __lt__(self, other) -> "BoolExpr":
        return Atom.build(self - other, strict=True)

    def __ge__(self, other) -> "BoolExpr":
        return Atom.build(self.__rsub__(other), strict=False)

    def __gt__(self, other) -> "BoolExpr":
        return Atom.build(self.__rsub__(other), strict=True)

    def __eq__(self, other):  # type: ignore[override]
        other = LinExpr.coerce(other)
        return And(self <= other, self >= other)

    def __ne__(self, other):  # type: ignore[override]
        other = LinExpr.coerce(other)
        return Or(self < other, self > other)

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, assignment: Mapping[RealVar, Fraction]) -> Fraction:
        """Evaluate under a total assignment of the free variables."""
        total = self.const
        for v, c in self.coeffs.items():
            total += c * assignment[v]
        return total

    def __repr__(self) -> str:
        parts = [f"{c}*{v.name}" for v, c in sorted(
            self.coeffs.items(), key=lambda it: it[0].name)]
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def Real(name: str) -> LinExpr:
    """Declare (or retrieve) a real variable as a linear expression."""
    return LinExpr.variable(RealVar(name))


def RealVal(value: Number) -> LinExpr:
    """A rational constant as a linear expression."""
    return LinExpr.constant(value)


# ---------------------------------------------------------------------------
# Boolean layer
# ---------------------------------------------------------------------------


class BoolExpr:
    """Base class for Boolean formulas.  Hash/eq are by identity (z3 style)."""

    __slots__ = ()

    def __and__(self, other) -> "BoolExpr":
        return And(self, other)

    def __or__(self, other) -> "BoolExpr":
        return Or(self, other)

    def __invert__(self) -> "BoolExpr":
        return Not(self)


class BoolConst(BoolExpr):
    """Boolean constants ``TRUE_EXPR`` / ``FALSE_EXPR``."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def __repr__(self) -> str:
        return "true" if self.value else "false"


TRUE_EXPR = BoolConst(True)
FALSE_EXPR = BoolConst(False)


def BoolVal(value: bool) -> BoolConst:
    return TRUE_EXPR if value else FALSE_EXPR


class BoolVar(BoolExpr):
    """A named propositional variable, interned weakly like :class:`RealVar`."""

    __slots__ = ("name", "__weakref__")
    _registry: WeakValueDictionary[str, BoolVar] = WeakValueDictionary()

    def __new__(cls, name: str) -> "BoolVar":
        existing = cls._registry.get(name)
        if existing is not None:
            return existing
        obj = object.__new__(cls)
        obj.name = name
        cls._registry[name] = obj
        return obj

    def __repr__(self) -> str:
        return self.name


def Bool(name: str) -> BoolVar:
    """Declare (or retrieve) a propositional variable."""
    return BoolVar(name)


class NotExpr(BoolExpr):
    __slots__ = ("arg",)

    def __init__(self, arg: BoolExpr):
        self.arg = arg

    def __repr__(self) -> str:
        return f"(not {self.arg!r})"


class AndExpr(BoolExpr):
    __slots__ = ("args",)

    def __init__(self, args: Tuple[BoolExpr, ...]):
        self.args = args

    def __repr__(self) -> str:
        return "(and " + " ".join(repr(a) for a in self.args) + ")"


class OrExpr(BoolExpr):
    __slots__ = ("args",)

    def __init__(self, args: Tuple[BoolExpr, ...]):
        self.args = args

    def __repr__(self) -> str:
        return "(or " + " ".join(repr(a) for a in self.args) + ")"


class Atom(BoolExpr):
    """A linear-arithmetic atom in normal form ``expr <= 0`` or ``expr < 0``.

    ``expr`` carries the constant, i.e. the atom is
    ``sum(c_i * x_i) (<= | <) -const``.
    """

    __slots__ = ("coeffs", "rhs", "strict")

    def __init__(self, coeffs: Tuple[Tuple[RealVar, Fraction], ...],
                 rhs: Fraction, strict: bool):
        self.coeffs = coeffs
        self.rhs = rhs
        self.strict = strict

    @staticmethod
    def build(diff: LinExpr, strict: bool) -> BoolExpr:
        """Build the atom ``diff <= 0`` (or ``< 0``), folding constants."""
        if diff.is_constant():
            if strict:
                return BoolVal(diff.const < 0)
            return BoolVal(diff.const <= 0)
        coeffs = tuple(sorted(diff.coeffs.items(), key=lambda it: it[0].name))
        return Atom(coeffs, -diff.const, strict)

    @property
    def key(self) -> Tuple:
        """Canonical identity for atom deduplication."""
        return (self.coeffs, self.rhs, self.strict)

    def evaluate(self, assignment: Mapping[RealVar, Fraction]) -> bool:
        total = Fraction(0)
        for v, c in self.coeffs:
            total += c * assignment[v]
        return total < self.rhs if self.strict else total <= self.rhs

    def __repr__(self) -> str:
        lhs = " + ".join(f"{c}*{v.name}" for v, c in self.coeffs)
        op = "<" if self.strict else "<="
        return f"({lhs} {op} {self.rhs})"


# ---------------------------------------------------------------------------
# Canonical literal serialization (cross-process clause sharing)
# ---------------------------------------------------------------------------
#
# Portfolio workers exchange learned clauses as plain tuples; a literal is
# either a named propositional variable or a normalized linear atom.  Both
# kinds are *interned* — ``BoolVar``/``RealVar`` by name, atoms by their
# canonical :attr:`Atom.key` in the CNF layer — so a serialized literal
# deserializes to the semantically identical term in any process, which is
# what makes clauses learned by one solver importable into another.
# Fractions travel as ``"num/den"`` strings (exact, hashable, picklable).


def serialize_literal(expr: "BoolExpr", negated: bool) -> Tuple:
    """A hashable, picklable encoding of a Boolean literal.

    Supports :class:`BoolVar` and :class:`Atom` leaves only — the stable,
    name-interned vocabulary that survives process boundaries.
    """
    if isinstance(expr, BoolVar):
        return ("b", expr.name, negated)
    if isinstance(expr, Atom):
        coeffs = tuple((v.name, str(c)) for v, c in expr.coeffs)
        return ("a", coeffs, str(expr.rhs), expr.strict, negated)
    raise SolverError(f"cannot serialize literal over {expr!r}")


def deserialize_literal(ser: Tuple) -> Tuple["BoolExpr", bool]:
    """Inverse of :func:`serialize_literal`: ``(expr, negated)``."""
    kind = ser[0]
    if kind == "b":
        _, name, negated = ser
        return BoolVar(name), negated
    if kind == "a":
        _, coeffs, rhs, strict, negated = ser
        atom = Atom(
            tuple((RealVar(name), Fraction(c)) for name, c in coeffs),
            Fraction(rhs),
            strict,
        )
        return atom, negated
    raise SolverError(f"unknown serialized literal kind {kind!r}")


# ---------------------------------------------------------------------------
# Formula constructors
# ---------------------------------------------------------------------------


def _flatten(args: Sequence, cls) -> Iterable[BoolExpr]:
    for a in args:
        if isinstance(a, (list, tuple)):
            yield from _flatten(a, cls)
        elif isinstance(a, cls):
            yield from a.args
        elif isinstance(a, bool):
            yield BoolVal(a)
        elif isinstance(a, BoolExpr):
            yield a
        else:
            raise SolverError(f"expected a Boolean expression, got {a!r}")


def And(*args) -> BoolExpr:
    """N-ary conjunction with constant folding and flattening."""
    flat = []
    for a in _flatten(args, AndExpr):
        if isinstance(a, BoolConst):
            if not a.value:
                return FALSE_EXPR
            continue
        flat.append(a)
    if not flat:
        return TRUE_EXPR
    if len(flat) == 1:
        return flat[0]
    return AndExpr(tuple(flat))


def Or(*args) -> BoolExpr:
    """N-ary disjunction with constant folding and flattening."""
    flat = []
    for a in _flatten(args, OrExpr):
        if isinstance(a, BoolConst):
            if a.value:
                return TRUE_EXPR
            continue
        flat.append(a)
    if not flat:
        return FALSE_EXPR
    if len(flat) == 1:
        return flat[0]
    return OrExpr(tuple(flat))


def Not(arg: BoolExpr) -> BoolExpr:
    if isinstance(arg, bool):
        arg = BoolVal(arg)
    if isinstance(arg, BoolConst):
        return BoolVal(not arg.value)
    if isinstance(arg, NotExpr):
        return arg.arg
    return NotExpr(arg)


def Implies(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return Or(Not(a), b)


def Iff(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return And(Or(Not(a), b), Or(a, Not(b)))


def Ite(cond: BoolExpr, then_b: BoolExpr, else_b: BoolExpr) -> BoolExpr:
    """Boolean if-then-else."""
    return And(Or(Not(cond), then_b), Or(cond, else_b))


def ExactlyOne(*args) -> BoolExpr:
    """Exactly one of the arguments holds (pairwise encoding)."""
    items = []
    for a in args:
        if isinstance(a, (list, tuple)):
            items.extend(a)
        else:
            items.append(a)
    if not items:
        return FALSE_EXPR
    at_least = Or(*items)
    at_most = And(*[
        Or(Not(items[i]), Not(items[j]))
        for i in range(len(items))
        for j in range(i + 1, len(items))
    ])
    return And(at_least, at_most)


def Sum(*args) -> LinExpr:
    """Sum of linear expressions / constants."""
    total = LinExpr.constant(0)
    for a in args:
        if isinstance(a, (list, tuple)):
            for b in a:
                total = total + LinExpr.coerce(b)
        else:
            total = total + LinExpr.coerce(a)
    return total
