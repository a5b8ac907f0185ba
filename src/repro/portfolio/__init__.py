"""Portfolio synthesis: race the paper's heuristics, first SAT wins.

The paper evaluates its two scalability heuristics (route subsets,
incremental stages) one configuration at a time; this subsystem runs a
configurable set of them concurrently against the same problem and
returns the first satisfiable schedule, cancelling the rest.  Race
verdicts are sound (``unsat`` only from a complete strategy's proof) and
workers share what their formulas entail — learned clauses and route
vetoes, as one :class:`~repro.core.seeding.Knowledge` value per
export — through a parent-side knowledge pool.  See
:mod:`repro.portfolio.strategies` for the default strategy mix,
:mod:`repro.portfolio.engine` for the racing machinery,
:mod:`repro.runtime.knowledge` for the export, its gate and the pool,
and :mod:`repro.core.seeding` for their soundness arguments.

The race is supervised (``docs/robustness.md``) through the worker
runtime it shares with the service (:mod:`repro.runtime`): workers
heartbeat, silent crashes and stalls are retried with capped backoff,
malformed knowledge is quarantined at the pool boundary, and
persistent failures degrade the race to the serial backend.
:mod:`repro.runtime.faults` injects deterministic failures to exercise
all of it on demand.
"""

from ..core.seeding import Knowledge, SeedKnowledge
from ..runtime.faults import FaultPlan, FaultSpec, InjectedCrash, WorkerFaults
from ..runtime.knowledge import KnowledgePool, validate_knowledge
from ..runtime.supervision import SupervisionPolicy, Supervisor
from .engine import (
    PortfolioResult,
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_SAT,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    STATUS_UNKNOWN,
    STATUS_UNSAT,
    StrategyResult,
    synthesize_portfolio,
)
from .strategies import Strategy, default_portfolio

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "Knowledge",
    "KnowledgePool",
    "PortfolioResult",
    "STATUS_CANCELLED",
    "STATUS_ERROR",
    "STATUS_SAT",
    "STATUS_SKIPPED",
    "STATUS_TIMEOUT",
    "STATUS_UNKNOWN",
    "STATUS_UNSAT",
    "SeedKnowledge",
    "Strategy",
    "StrategyResult",
    "SupervisionPolicy",
    "Supervisor",
    "WorkerFaults",
    "default_portfolio",
    "synthesize_portfolio",
    "validate_knowledge",
]
