"""Term language for the SMT solver: Booleans and linear real arithmetic.

This module provides a z3py-flavoured expression API::

    x, y = Real("x"), Real("y")
    a, b = Bool("a"), Bool("b")
    f = Or(a, And(b, x - y >= 2), x + 3 * y <= Fraction(7, 2))

Arithmetic terms are kept in *linear normal form* at construction time: a
:class:`LinExpr` is a mapping ``variable -> coefficient`` plus a
constant.  Comparisons build :class:`Atom` leaves normalized to
``sum(coeffs) <= rhs`` or ``< rhs`` (negations of atoms are handled by the
theory layer, not by separate atom objects).

Every coefficient, constant and right-hand side is an exact rational in
one representation (:func:`_exact`): a plain ``int`` when the value is
integral, a ``Fraction`` otherwise.  The paper's constraints are
difference constraints with coefficients of ±1 almost everywhere, so
most of them never touch ``Fraction`` arithmetic or hashing.  An ``int``
and a ``Fraction`` of one value compare equal, hash alike and print
alike, so atom keys and :func:`serialize_literal` bytes do not depend on
how a value was spelled.

Following z3py, ``==`` on arithmetic expressions builds a formula (an
``And`` of two inequalities); term objects hash by identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union
from weakref import WeakValueDictionary

from ..errors import SolverError

Number = Union[int, Fraction, float, str]
#: What :func:`_exact` returns: ``int`` if integral, else ``Fraction``.
Rational = Union[int, Fraction]


def _exact(value: Number) -> Rational:
    """``value`` as an exact rational: an ``int`` when it is integral, a
    ``Fraction`` otherwise.

    Floats go through ``limit_denominator(10**12)``, so ``0.35`` means
    ``7/20``; strings are parsed by ``Fraction``.
    """
    cls = type(value)
    if cls is int:
        return value
    if cls is not Fraction:
        if isinstance(value, (int, Fraction, str)):
            value = Fraction(value)
        elif isinstance(value, float):
            value = Fraction(value).limit_denominator(10**12)
        else:
            raise SolverError(
                f"cannot interpret {value!r} as a rational constant")
    return value.numerator if value.denominator == 1 else value


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

    def __init__(self, coeffs: Mapping[RealVar, Number] | None = None,
                 const: Number = 0):
        exact = {v: _exact(c) for v, c in (coeffs or {}).items()}
        self.coeffs: Dict[RealVar, Rational] = {
            v: c for v, c in exact.items() if c
        }
        self.const: Rational = _exact(const)

    @classmethod
    def _normal(cls, coeffs: Dict[RealVar, Rational],
                const: Rational) -> "LinExpr":
        """Wrap non-zero :func:`_exact` coefficients as they stand.

        The arithmetic below only ever produces normalised parts, so it
        skips the public constructor's conversion and zero filtering.
        """
        self = object.__new__(cls)
        self.coeffs = coeffs
        self.const = const
        return self

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def variable(var: RealVar) -> "LinExpr":
        return LinExpr._normal({var: 1}, 0)

    @staticmethod
    def constant(value: Number) -> "LinExpr":
        return LinExpr._normal({}, _exact(value))

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
    # right operand's new ones, cancelled entries dropped.  Negation keeps
    # a value normalised; a sum or product of two Fractions can be an
    # integer, so those go through _exact.

    def __add__(self, other) -> "LinExpr":
        if not isinstance(other, (LinExpr, RealVar)):
            return LinExpr._normal(self.coeffs,
                                   _exact(self.const + _exact(other)))
        other = LinExpr.coerce(other)
        const = _exact(self.const + other.const)
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
            total = _exact(mine + c)
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
                                   _exact(self.const - _exact(other)))
        other = LinExpr.coerce(other)
        const = _exact(self.const - other.const)
        if not other.coeffs:
            return LinExpr._normal(self.coeffs, const)
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            mine = coeffs.get(v)
            if mine is None:
                coeffs[v] = -c
                continue
            total = _exact(mine - c)
            if total:
                coeffs[v] = total
            else:
                del coeffs[v]
        return LinExpr._normal(coeffs, const)

    def __rsub__(self, other) -> "LinExpr":
        return LinExpr.coerce(other) - self

    def _scaled(self, k: Rational) -> "LinExpr":
        if not k:
            return LinExpr._normal({}, 0)
        return LinExpr._normal(
            {v: _exact(c * k) for v, c in self.coeffs.items()},
            _exact(self.const * k))

    def __mul__(self, other) -> "LinExpr":
        if isinstance(other, (LinExpr, RealVar)):
            other = LinExpr.coerce(other)
            if other.is_constant():
                return self._scaled(other.const)
            if self.is_constant():
                return other._scaled(self.const)
            raise SolverError("non-linear product of two variable expressions")
        return self._scaled(_exact(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LinExpr":
        k = _exact(other)
        if k == 0:
            raise ZeroDivisionError("division of linear expression by zero")
        return self._scaled(_exact(Fraction(k.denominator, k.numerator)))

    # -- comparisons build atoms/formulas ---------------------------------------
    #
    # Against a constant ``k`` the atom's parts are read off this
    # expression: ``self <= k`` is ``sum(coeffs) <= k - const`` and
    # ``self >= k`` is ``sum(-coeffs) <= const - k``.

    def _at_most(self, other, strict: bool) -> "BoolExpr":
        if isinstance(other, (LinExpr, RealVar)):
            return Atom.build(self - other, strict)
        return Atom.of(self.coeffs, _exact(_exact(other) - self.const),
                       strict)

    def _at_least(self, other, strict: bool) -> "BoolExpr":
        if isinstance(other, (LinExpr, RealVar)):
            return Atom.build(LinExpr.coerce(other) - self, strict)
        return Atom.of({v: -c for v, c in self.coeffs.items()},
                       _exact(self.const - _exact(other)), strict)

    def __le__(self, other) -> "BoolExpr":
        return self._at_most(other, strict=False)

    def __lt__(self, other) -> "BoolExpr":
        return self._at_most(other, strict=True)

    def __ge__(self, other) -> "BoolExpr":
        return self._at_least(other, strict=False)

    def __gt__(self, other) -> "BoolExpr":
        return self._at_least(other, strict=True)

    def __eq__(self, other):  # type: ignore[override]
        return And(self <= other, self >= other)

    def __ne__(self, other):  # type: ignore[override]
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

    def __init__(self, coeffs: Tuple[Tuple[RealVar, Rational], ...],
                 rhs: Rational, strict: bool):
        self.coeffs = coeffs
        self.rhs = rhs
        self.strict = strict

    @staticmethod
    def build(diff: LinExpr, strict: bool) -> BoolExpr:
        """Build the atom ``diff <= 0`` (or ``< 0``), folding constants."""
        return Atom.of(diff.coeffs, -diff.const, strict)

    @staticmethod
    def of(coeffs: Mapping[RealVar, Rational], rhs: Rational,
           strict: bool) -> BoolExpr:
        """The atom ``sum(coeffs) <= rhs`` (or ``< rhs``), a constant
        when there is no coefficient.

        Coefficients are ordered by variable name (names are unique).
        """
        items = coeffs.items()
        n = len(items)
        if n == 2:
            first, second = items
            ordered = ((first, second) if first[0].name < second[0].name
                       else (second, first))
        elif n == 1:
            ordered = tuple(items)
        elif n:
            ordered = tuple(sorted(items, key=lambda it: it[0].name))
        else:
            return BoolVal(0 < rhs if strict else 0 <= rhs)
        return Atom(ordered, rhs, strict)

    @property
    def key(self) -> Tuple:
        """Canonical identity for atom deduplication.

        The right-hand side enters as its lowest-terms integer pair,
        which identifies the value as well as the number does but hashes
        without ``Fraction.__hash__``'s modular inverse.
        """
        rhs = self.rhs
        return (self.coeffs, rhs.numerator, rhs.denominator, self.strict)

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
            tuple((RealVar(name), _exact(c)) for name, c in coeffs),
            _exact(rhs),
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


#: Node types a junction takes as they stand (its own type is spliced).
_OPERANDS = frozenset((Atom, BoolVar, NotExpr, AndExpr, OrExpr))


def _junction(args: Sequence, cls, absorbing: BoolConst) -> BoolExpr:
    """``cls`` over ``args``, flattened, with constants folded.

    Direct arguments are dispatched on their exact type; only lists,
    tuples, bools and constants take the recursive :func:`_flatten`.
    """
    flat: list = []
    for a in args:
        kind = type(a)
        if kind is cls:
            flat.extend(a.args)
        elif kind in _OPERANDS:
            flat.append(a)
        else:
            for b in _flatten((a,), cls):
                if type(b) is BoolConst:
                    if b.value == absorbing.value:
                        return absorbing
                else:
                    flat.append(b)
    if len(flat) > 1:
        return cls(tuple(flat))
    return flat[0] if flat else BoolVal(not absorbing.value)


def And(*args) -> BoolExpr:
    """N-ary conjunction with constant folding and flattening."""
    return _junction(args, AndExpr, FALSE_EXPR)


def Or(*args) -> BoolExpr:
    """N-ary disjunction with constant folding and flattening."""
    return _junction(args, OrExpr, TRUE_EXPR)


def Not(arg: BoolExpr) -> BoolExpr:
    kind = type(arg)
    if kind is NotExpr:
        return arg.arg
    if kind is BoolConst:
        return BoolVal(not arg.value)
    if kind is bool:
        return BoolVal(not arg)
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
