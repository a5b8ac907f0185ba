"""repro — stability-aware integrated routing and scheduling for control
applications in Ethernet networks (Mahfouzi et al., DATE 2018).

Public API re-exports: the most common entry points from each subpackage.
See README.md for the architecture and DESIGN.md for the system inventory.
"""

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
from .stability import (
    StabilityCurve,
    StabilitySpec,
    compute_stability_curve,
    fit_lower_bound,
    jitter_margin,
)

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
