"""Piecewise-linear lower bound of the stability curve (paper Eq. 2-3).

The stability curve is "safely approximated by a piecewise linear
(lower-bound) function of the latency and jitter" — the red curve in
Fig. 3.  Each segment ``k`` yields the constraint::

    L + alpha_k * J <= beta_k        for  L_{k-1} <= L <= L_k

with non-negative constants, and the stability margin ``delta`` of Eq. (3)
is ``beta_k - (L + alpha_k J)`` in the active segment (``-inf`` beyond the
last breakpoint).

The fitter verifies the bound against *every* curve sample in each
segment and shrinks ``beta`` until the bound is genuinely below the curve
(a safety property the SMT encoding relies on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, List, Tuple, Union

from ..errors import StabilityAnalysisError

if TYPE_CHECKING:
    from .curve import StabilityCurve

Number = Union[int, float, Fraction]

#: Slope used to express (nearly) flat jitter bounds in the paper's
#: ``L + alpha J <= beta`` form, which can only describe bounds that
#: decrease with latency.
_FLAT_ALPHA = Fraction(10_000)


@dataclass(frozen=True)
class Segment:
    """One linear piece: ``L + alpha * J <= beta`` valid on ``[l_lo, l_hi]``."""

    alpha: Fraction
    beta: Fraction
    l_lo: Fraction
    l_hi: Fraction

    def margin(self, latency: Fraction, jitter: Fraction) -> Fraction:
        return self.beta - (latency + self.alpha * jitter)

    def jitter_bound(self, latency: Fraction) -> Fraction:
        """The jitter bound ``(beta - L)/alpha`` this segment certifies."""
        return (self.beta - latency) / self.alpha


@dataclass(frozen=True)
class StabilitySpec:
    """The per-application stability data consumed by the synthesizer.

    ``segments`` are ordered by latency range; stability of ``(L, J)``
    requires the active segment's constraint to hold (Eq. 2).
    """

    segments: Tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise StabilityAnalysisError("a stability spec needs >= 1 segment")
        for seg in self.segments:
            if seg.alpha < 0 or seg.beta < 0:
                raise StabilityAnalysisError("alpha/beta must be non-negative")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.l_hi != b.l_lo:
                raise StabilityAnalysisError("segments must tile the latency axis")

    @property
    def max_latency(self) -> Fraction:
        return self.segments[-1].l_hi

    def margin(self, latency: Number, jitter: Number) -> float:
        """Stability margin ``delta`` of Eq. (3); ``-inf`` if out of range."""
        lat = Fraction(latency).limit_denominator(10**12)
        jit = Fraction(jitter).limit_denominator(10**12)
        for seg in self.segments:
            if seg.l_lo <= lat <= seg.l_hi:
                return float(seg.margin(lat, jit))
        return -math.inf

    def is_stable(self, latency: Number, jitter: Number) -> bool:
        """Eq. (10): non-negative margin guarantees worst-case stability."""
        return self.margin(latency, jitter) >= 0

    @staticmethod
    def single_line(alpha: Number, beta: Number) -> "StabilitySpec":
        """A one-segment spec, as used for the Table I applications.

        The paper estimates each GM application's curve "by one line",
        giving a single (alpha, beta) pair; the segment covers the full
        latency range ``[0, beta]`` on which the bound is non-negative.
        """
        a = Fraction(alpha).limit_denominator(10**9)
        b = Fraction(beta).limit_denominator(10**9)
        return StabilitySpec((Segment(a, b, Fraction(0), b),))


def fit_lower_bound(curve: StabilityCurve, n_segments: int = 3) -> StabilitySpec:
    """Fit a verified piecewise-linear lower bound to a stability curve.

    Breakpoints are spread uniformly over the curve's positive-margin
    range; each segment starts as the chord between the curve values at
    its endpoints and is then *verified* against every sample inside the
    segment, shrinking ``beta`` until the bound lies below the curve
    everywhere (with the flat-slope fallback for non-decreasing pieces).
    """
    if n_segments < 1:
        raise StabilityAnalysisError("need at least one segment")
    l_end = curve.max_latency
    if l_end <= 0:
        raise StabilityAnalysisError("curve has no stable region to bound")
    lats = [Fraction(l_end) * k / n_segments for k in range(n_segments + 1)]
    segments: List[Segment] = []
    for k in range(n_segments):
        l0, l1 = lats[k], lats[k + 1]
        j0 = Fraction(curve.margin_at(float(l0))).limit_denominator(10**12)
        j1 = Fraction(curve.margin_at(float(l1))).limit_denominator(10**12)
        if j1 < j0:
            # Decreasing chord: L + alpha J <= beta through both endpoints.
            alpha = (l1 - l0) / (j0 - j1)
            beta = l0 + alpha * j0
        else:
            # Flat (or increasing) piece: bound by j0 with a huge slope.
            alpha = _FLAT_ALPHA
            beta = l0 + alpha * j0
        # Verify against all samples in [l0, l1]; shrink beta if needed.
        for lat, margin in zip(curve.latencies, curve.margins):
            flat = Fraction(float(lat)).limit_denominator(10**12)
            if not l0 <= flat <= l1:
                continue
            fmargin = Fraction(float(margin)).limit_denominator(10**12)
            bound = (beta - flat) / alpha
            if bound > fmargin:
                beta = flat + alpha * fmargin
        beta = max(beta, l0)  # keep beta >= l_lo so the segment is non-empty
        segments.append(Segment(alpha, beta, l0, l1))
    return StabilitySpec(tuple(segments))
