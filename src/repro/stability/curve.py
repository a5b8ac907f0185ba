"""Stability curves: ``J_max`` as a function of latency (paper Fig. 3).

A :class:`StabilityCurve` samples the jitter margin on a latency grid
until the nominal loop goes unstable, reproducing the solid curve of
Fig. 3 ("the area below the curve is the stable area").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import StabilityAnalysisError
from ..control.lqg import design_lqg
from ..control.lti import StateSpace
from .margin import (
    JitterMarginOptions,
    delay_margin,
    jitter_margin,
    nominal_loop_stable,
)


@dataclass
class StabilityCurve:
    """Sampled stability boundary ``(L_i, Jmax_i)`` for one application."""

    latencies: np.ndarray
    margins: np.ndarray
    sample_period: float

    def __post_init__(self) -> None:
        if len(self.latencies) != len(self.margins):
            raise StabilityAnalysisError("latency/margin arrays differ in length")
        if len(self.latencies) < 2:
            raise StabilityAnalysisError("a curve needs at least two samples")

    @property
    def max_latency(self) -> float:
        """Largest latency with a positive margin sample."""
        positive = self.latencies[self.margins > 0]
        return float(positive[-1]) if len(positive) else 0.0

    def margin_at(self, latency: float) -> float:
        """Linear interpolation of ``J_max`` (0 beyond the sampled range)."""
        if latency < self.latencies[0] or latency > self.latencies[-1]:
            return 0.0
        return float(np.interp(latency, self.latencies, self.margins))

    def is_stable(self, latency: float, jitter: float) -> bool:
        """Point-below-curve test (the paper's green region)."""
        return jitter <= self.margin_at(latency) and self.margin_at(latency) > 0

    def as_table(self) -> List[Tuple[float, float]]:
        return list(zip(self.latencies.tolist(), self.margins.tolist()))


def compute_stability_curve(
    plant: StateSpace,
    h: float,
    controller: Optional[StateSpace] = None,
    max_latency: Optional[float] = None,
    n_points: int = 25,
    options: Optional[JitterMarginOptions] = None,
) -> StabilityCurve:
    """Sample ``J_max(L)`` for a plant/controller pair.

    Args:
        plant: continuous-time plant.
        h: sampling period.
        controller: discrete controller; an LQG design is synthesized when
            omitted (the paper's experimental setup).
        max_latency: largest latency to sample; defaults to the point
            where the nominal loop loses stability (capped at ``4 h``).
        n_points: number of latency samples.
        options: frequency-sweep options.

    Raises:
        StabilityAnalysisError: when even the zero-latency loop is
            unstable (no stability curve exists).
    """
    ctrl = controller if controller is not None else design_lqg(plant, h)
    if not nominal_loop_stable(plant, ctrl, h, 0.0):
        raise StabilityAnalysisError(
            "closed loop is unstable even at zero latency; no stability curve"
        )
    boundary = delay_margin(plant, ctrl, h)
    if max_latency is None:
        max_latency = boundary
    if max_latency <= 0:
        raise StabilityAnalysisError("no positive latency is stabilizable")
    lats = np.linspace(0.0, max_latency, n_points)
    margins = np.array(
        [
            jitter_margin(plant, ctrl, h, float(L), options,
                          stability_boundary=boundary)
            for L in lats
        ]
    )
    return StabilityCurve(lats, margins, sample_period=h)
