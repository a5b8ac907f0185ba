"""Exact numbers for linear real arithmetic with strict inequalities.

A :class:`DeltaRational` is a pair ``a + b*delta`` where ``delta`` is a
positive infinitesimal.  Strict bounds like ``x > 3`` are represented as the
non-strict bound ``x >= 3 + delta``; at model-extraction time ``delta`` is
materialized as a concrete small positive rational (see
:func:`materialize_delta`).

Both theory engines keep their *state* not as ``DeltaRational`` objects
but as integer pairs over one scale per engine (:class:`ScaledEngine`);
``DeltaRational`` is what crosses their cold public API.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Tuple, Union

Number = Union[int, Fraction]
#: A bound or value in an engine's scale: ``(real * S, delta * S)``.
Scaled = Tuple[int, int]


class DeltaRational:
    """An element of Q + Q*delta with exact arithmetic and total order."""

    __slots__ = ("real", "delta")

    def __init__(self, real: Number = 0, delta: Number = 0):
        # Avoid re-wrapping Fractions: this constructor is on the solver's
        # hottest path (millions of calls in one synthesis run).
        self.real = real if type(real) is Fraction else Fraction(real)
        self.delta = delta if type(delta) is Fraction else Fraction(delta)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "DeltaRational | Number") -> "DeltaRational":
        if type(other) is not DeltaRational:
            other = _coerce(other)
        return DeltaRational(self.real + other.real, self.delta + other.delta)

    __radd__ = __add__

    def __sub__(self, other: "DeltaRational | Number") -> "DeltaRational":
        if type(other) is not DeltaRational:
            other = _coerce(other)
        return DeltaRational(self.real - other.real, self.delta - other.delta)

    def __rsub__(self, other: "DeltaRational | Number") -> "DeltaRational":
        return _coerce(other) - self

    def __neg__(self) -> "DeltaRational":
        return DeltaRational(-self.real, -self.delta)

    def __mul__(self, k: Number) -> "DeltaRational":
        k = Fraction(k)
        return DeltaRational(self.real * k, self.delta * k)

    __rmul__ = __mul__

    def __truediv__(self, k: Number) -> "DeltaRational":
        k = Fraction(k)
        return DeltaRational(self.real / k, self.delta / k)

    # -- comparisons ---------------------------------------------------------

    def _cmp(self, other: "DeltaRational | Number") -> int:
        if type(other) is not DeltaRational:
            other = _coerce(other)
        # Cross-multiplied integer comparison: Fraction's own comparison
        # operators pay for numbers-ABC isinstance checks on every call,
        # which dominates solver profiles.
        a, b = self.real, other.real
        lhs = a.numerator * b.denominator
        rhs = b.numerator * a.denominator
        if lhs != rhs:
            return -1 if lhs < rhs else 1
        a, b = self.delta, other.delta
        lhs = a.numerator * b.denominator
        rhs = b.numerator * a.denominator
        if lhs != rhs:
            return -1 if lhs < rhs else 1
        return 0

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other) -> bool:  # type: ignore[override]
        if not isinstance(other, (DeltaRational, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self) -> int:
        return hash((self.real, self.delta))

    def __repr__(self) -> str:
        if self.delta == 0:
            return f"{self.real}"
        sign = "+" if self.delta > 0 else "-"
        return f"{self.real} {sign} {abs(self.delta)}d"


def _coerce(value: "DeltaRational | Number") -> DeltaRational:
    if isinstance(value, DeltaRational):
        return value
    return DeltaRational(value)


ZERO = DeltaRational(0)


def materialize_delta(pairs: Iterable[tuple[DeltaRational, DeltaRational]]) -> Fraction:
    """Choose a concrete positive value for ``delta``.

    ``pairs`` iterates over ordered pairs ``(lo, hi)`` with ``lo <= hi`` in
    the delta-rational order; the returned epsilon keeps
    ``lo.real + lo.delta*eps <= hi.real + hi.delta*eps`` for every pair.
    """
    return materialize_gaps(
        (hi.real - lo.real, lo.delta - hi.delta) for lo, hi in pairs
    )


def materialize_gaps(gaps: Iterable[Tuple[Number, Number]]) -> Fraction:
    """:func:`materialize_delta` over ``(dreal, ddelta)`` gaps.

    A gap is ``(hi.real - lo.real, lo.delta - hi.delta)`` of an ordered
    pair, in any one unit (epsilon is a ratio of the two, hence
    scale-free): the result keeps ``dreal >= ddelta * eps`` for every
    gap — half the tightest ``dreal / ddelta``, capped at 1.  All-integer
    gaps cost integer compares only and one ``Fraction`` at the end.
    """
    num, den = 1, 1
    for dreal, ddelta in gaps:
        # Only binding when ddelta > 0.
        if ddelta > 0:
            if dreal <= 0:
                raise ValueError("inconsistent delta-rational ordering")
            if dreal * den < 2 * ddelta * num:
                num, den = dreal, 2 * ddelta
    return Fraction(num, den)


class ScaledEngine:
    """Exact state in integers over one positive scale ``S`` per engine.

    A stored pair ``(r, d)`` stands for the delta-rational
    ``(r + d*delta) / S``, so sums and (lexicographic) comparisons are
    plain integer operations with no allocation.  ``S`` only ever grows,
    by an integer factor that multiplies every stored value
    (:meth:`_rescale`): a change of units, not an approximation.  Pairs
    handed out earlier are brought to the current scale by multiplying
    with ``S // scale_then``.
    """

    def __init__(self) -> None:
        self._scale = 1

    @property
    def scale(self) -> int:
        """The engine-wide integer scale (changes only on rescaling)."""
        return self._scale

    def scaled_bound(self, real: Number, delta: Number = 0) -> Scaled:
        """``real + delta*d`` as an integer pair in the engine's scale.

        Folds both denominators into the scale *first* (growing it when
        one of them does not divide it yet), so the conversion is exact
        and a value once converted stays representable for good.
        """
        scale = self._scale
        rden, dden = real.denominator, delta.denominator
        if scale % rden or scale % dden:
            need = lcm(rden, dden)
            self._rescale(need // gcd(need, scale))
            scale = self._scale
        return (real.numerator * (scale // rden),
                delta.numerator * (scale // dden))

    def _rescale(self, factor: int) -> None:
        """Multiply the scale and every stored value by ``factor``."""
        raise NotImplementedError
