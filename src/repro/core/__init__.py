"""Core synthesis: the paper's contribution (Secs. IV-V).

Stability-aware joint routing and scheduling of time-triggered Ethernet
messages via SMT, with the route-subset and incremental-stage heuristics,
plus the deadline-only baseline, the solution model, and an independent
exact validator.
"""

from .encoding import Encoder, MessagePlan
from .export import render_switch_configs, solution_from_dict, solution_to_dict
from .problem import ControlApplication, SynthesisProblem
from .seeding import (
    MODE_DEADLINE,
    MODE_STABILITY,
    Knowledge,
    SeedKnowledge,
    StrategySignature,
)
from .solution import AppReport, MessageSchedule, Solution
from .synthesizer import SynthesisOptions, SynthesisResult, solve
from .validator import collect_violations, validate_solution

__all__ = [
    "AppReport",
    "ControlApplication",
    "Encoder",
    "MODE_DEADLINE",
    "MODE_STABILITY",
    "MessagePlan",
    "MessageSchedule",
    "Knowledge",
    "SeedKnowledge",
    "render_switch_configs",
    "solution_from_dict",
    "solution_to_dict",
    "Solution",
    "StrategySignature",
    "SynthesisOptions",
    "SynthesisProblem",
    "SynthesisResult",
    "collect_violations",
    "solve",
    "validate_solution",
]
