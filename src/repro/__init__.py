"""repro — stability-aware integrated routing and scheduling for control
applications in Ethernet networks (Mahfouzi et al., DATE 2018).

Public API re-exports: the most common entry points from each subpackage.
The stability-curve names need numpy and are imported on first access
(see :mod:`repro.stability`), so ``import repro`` does not load numpy.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports
from .api import CheckOutcome, Session
from .core import (
    ControlApplication,
    MODE_DEADLINE,
    MODE_STABILITY,
    Solution,
    SynthesisOptions,
    SynthesisProblem,
    SynthesisResult,
    solve,
    validate_solution,
)
from .errors import (
    ControlDesignError,
    EncodingError,
    ReproError,
    SimulationError,
    SolverError,
    StabilityAnalysisError,
    TopologyError,
    ValidationError,
)
from .network import DelayModel, Flow, Network, gm_topology, simple_testbed
from .portfolio import (
    PortfolioResult,
    Strategy,
    StrategyResult,
    default_portfolio,
    synthesize_portfolio,
)
from .sim import simulate_solution
from .stability import StabilitySpec, fit_lower_bound

if TYPE_CHECKING:
    from .stability import StabilityCurve, compute_stability_curve, jitter_margin

__getattr__, __dir__ = lazy_exports(globals(), {
    "StabilityCurve": ".stability",
    "compute_stability_curve": ".stability",
    "jitter_margin": ".stability",
})

__version__ = "1.0.0"

__all__ = [
    "CheckOutcome",
    "ControlApplication",
    "ControlDesignError",
    "DelayModel",
    "EncodingError",
    "Flow",
    "MODE_DEADLINE",
    "MODE_STABILITY",
    "Network",
    "PortfolioResult",
    "ReproError",
    "Session",
    "SimulationError",
    "Solution",
    "SolverError",
    "StabilityAnalysisError",
    "StabilityCurve",
    "StabilitySpec",
    "Strategy",
    "StrategyResult",
    "SynthesisOptions",
    "SynthesisProblem",
    "SynthesisResult",
    "TopologyError",
    "ValidationError",
    "compute_stability_curve",
    "default_portfolio",
    "fit_lower_bound",
    "gm_topology",
    "jitter_margin",
    "simple_testbed",
    "simulate_solution",
    "solve",
    "synthesize_portfolio",
    "validate_solution",
    "__version__",
]
