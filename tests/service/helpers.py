"""Shared fixtures for the service tests: a fixed-topology app family.

All family problems share one network, one delay model, and one period
(hence one hyper-period); they differ only in *which* applications are
attached.  Two of them fingerprint alike only when they attach the same
applications, so a grown or shrunk family problem is the closest miss
the fingerprint-keyed cache can meet.
"""

import asyncio
from fractions import Fraction

from repro.core.problem import ControlApplication, SynthesisProblem
from repro.eval.workloads import slow_funnel_problem
from repro.network.graph import Network
from repro.network.timing import DelayModel
from repro.stability.piecewise import StabilitySpec

PERIOD = Fraction(9, 1000)
DELAYS = DelayModel(sd=Fraction(1, 4000), ld=Fraction(1, 1000))

#: Enough endpoints for five family apps.
_N_ENDPOINTS = 5


def family_network() -> Network:
    net = Network()
    for node in ("A", "B", "D"):
        net.add_switch(node)
    net.add_link("A", "B")
    net.add_link("A", "D")
    net.add_link("D", "B")
    for i in range(_N_ENDPOINTS):
        net.add_sensor(f"S{i}")
        net.add_controller(f"C{i}")
        net.add_link(f"S{i}", "A")
        net.add_link("B", f"C{i}")
    return net


def family_app(i: int, period: Fraction = PERIOD) -> ControlApplication:
    return ControlApplication(
        f"app{i}", f"S{i}", f"C{i}", period,
        StabilitySpec.single_line("1.5", str(float(period))),
    )


def family_problem(indices, period: Fraction = PERIOD) -> SynthesisProblem:
    apps = [family_app(i, period) for i in indices]
    return SynthesisProblem(family_network(), apps, DELAYS)


def run(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


def slow_problem() -> SynthesisProblem:
    """Seconds of monolithic search (thousands of conflicts, an unsat
    that no probe short-cuts): a solve that is still running when a
    deadline or a cancel arrives."""
    return slow_funnel_problem()
