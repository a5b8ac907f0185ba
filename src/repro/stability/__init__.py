"""Stability analysis substrate (paper Sec. IV).

Replaces the MATLAB Jitter Margin toolbox: a sufficient frequency-domain
small-gain criterion gives the maximum tolerable response-time jitter
``J_max(L)`` per latency; :func:`compute_stability_curve` samples the
stability boundary (Fig. 3) and :func:`fit_lower_bound` extracts the
verified piecewise-linear (alpha, beta, L) segments of Eq. (2)/(3) that
the synthesizer turns into SMT constraints.

Synthesis needs only :mod:`~repro.stability.piecewise`.  The curve and
jitter-margin names (:mod:`~repro.stability.curve`,
:mod:`~repro.stability.margin`) need numpy and are imported on first
access.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .piecewise import Segment, StabilitySpec, fit_lower_bound

if TYPE_CHECKING:
    from .curve import StabilityCurve, compute_stability_curve
    from .margin import (
        JitterMarginOptions,
        delay_margin,
        jitter_margin,
        nominal_loop_stable,
    )

__getattr__, __dir__ = lazy_exports(globals(), {
    "StabilityCurve": ".curve",
    "compute_stability_curve": ".curve",
    "JitterMarginOptions": ".margin",
    "delay_margin": ".margin",
    "jitter_margin": ".margin",
    "nominal_loop_stable": ".margin",
})

__all__ = [
    "JitterMarginOptions",
    "Segment",
    "StabilityCurve",
    "StabilitySpec",
    "compute_stability_curve",
    "delay_margin",
    "fit_lower_bound",
    "jitter_margin",
    "nominal_loop_stable",
]
