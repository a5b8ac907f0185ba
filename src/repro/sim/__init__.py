"""Discrete-event TSN network simulator: an independent executable
semantics used to validate synthesized schedules."""

from .events import Event, EventQueue
from .netsim import SimTrace, cross_check_e2e, simulate_solution

__all__ = [
    "Event",
    "EventQueue",
    "SimTrace",
    "cross_check_e2e",
    "simulate_solution",
]
