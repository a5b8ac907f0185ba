"""Discrete-event simulation of a synthesized TSN schedule.

Runs every frame of one hyper-period through the behavioural switch model
of :mod:`repro.network.switch`:

* the sensor releases each frame at its sampling instant;
* each link transmission occupies the directed link for ``ld`` — overlaps
  raise :class:`SimulationError` (this re-checks Eq. 5 *behaviourally*);
* each switch's forwarding engine enqueues the frame ``sd`` after arrival,
  and its timed gate opens at the synthesized ``gamma`` — opening a gate
  for a frame that has not arrived raises (re-checks Eq. 6);
* controller arrival times yield measured end-to-end delays, which must
  equal the analytical ``e2e`` of the solution bit-for-bit.

This gives an independent *executable* semantics for solutions, closing
the loop between the SMT model and the 802.1Qbv machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from ..errors import SimulationError
from ..network.graph import NodeKind
from .events import EventQueue
from ..core.solution import Solution


@dataclass
class SimTrace:
    """Measured behaviour of one hyper-period."""

    arrivals: Dict[str, Fraction]          # uid -> controller arrival time
    e2e: Dict[str, Fraction]               # uid -> measured end-to-end delay
    link_transmissions: List[Tuple[str, str, Fraction, str]]
    events_processed: int

    def app_latency_jitter(self, solution: Solution, app_name: str):
        """(latency, jitter) per Eq. (9), from *measured* delays."""
        delays = [
            self.e2e[uid]
            for uid, sched in solution.schedules.items()
            if sched.app == app_name
        ]
        if not delays:
            raise SimulationError(f"no simulated messages for app {app_name!r}")
        return min(delays), max(delays) - min(delays)


def simulate_solution(solution: Solution) -> SimTrace:
    """Execute one hyper-period of the schedule; raises on any violation."""
    problem = solution.problem
    net = problem.network
    sd, ld = problem.delays.sd, problem.delays.ld
    switches = solution.program_switches()

    queue = EventQueue()
    # Track per directed link the end of its last transmission.
    link_busy_until: Dict[Tuple[str, str], Tuple[Fraction, str]] = {}
    arrivals: Dict[str, Fraction] = {}
    e2e: Dict[str, Fraction] = {}
    transmissions: List[Tuple[str, str, Fraction, str]] = []
    events = 0

    def start_transmission(uid: str, u: str, v: str, start: Fraction) -> None:
        busy = link_busy_until.get((u, v))
        if busy is not None and start < busy[0]:
            raise SimulationError(
                f"link {u}->{v}: {uid} starts at {start} while {busy[1]} "
                f"transmits until {busy[0]} (Eq. 5 violated)"
            )
        link_busy_until[(u, v)] = (start + ld, uid)
        transmissions.append((u, v, start, uid))
        queue.push(start + ld, "arrival", (uid, v))

    # Seed: every sensor release.
    for uid, sched in solution.schedules.items():
        queue.push(sched.release, "release", (uid,))

    while queue:
        event = queue.pop()
        events += 1
        if event.kind == "release":
            (uid,) = event.payload
            sched = solution.schedules[uid]
            start_transmission(uid, sched.route[0], sched.route[1], event.time)
        elif event.kind == "arrival":
            uid, node = event.payload
            sched = solution.schedules[uid]
            kind = net.kind(node)
            if kind == NodeKind.CONTROLLER:
                arrivals[uid] = event.time
                e2e[uid] = event.time - sched.release
            elif kind == NodeKind.SWITCH:
                sw = switches[node]
                out_peer, enqueue_time = sw.receive(uid, event.time)
                gate_time = sw.gate_open_time(uid)
                if gate_time < enqueue_time:
                    raise SimulationError(
                        f"switch {node}: gate for {uid} opens at {gate_time} "
                        f"before the frame is enqueued at {enqueue_time} "
                        "(Eq. 6 violated)"
                    )
                queue.push(gate_time, "gate", (uid, node))
            else:
                raise SimulationError(
                    f"{uid}: frame arrived at a sensor node {node!r}"
                )
        elif event.kind == "gate":
            uid, node = event.payload
            sw = switches[node]
            out_peer = sw.transmit(uid, event.time)
            start_transmission(uid, node, out_peer, event.time)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {event.kind!r}")

    missing = set(solution.schedules) - set(arrivals)
    if missing:
        raise SimulationError(f"frames never delivered: {sorted(missing)}")
    return SimTrace(arrivals, e2e, transmissions, events)


def cross_check_e2e(solution: Solution, trace: SimTrace) -> None:
    """Measured delays must equal the analytical solution exactly."""
    for uid, sched in solution.schedules.items():
        measured = trace.e2e[uid]
        if measured != sched.e2e:
            raise SimulationError(
                f"{uid}: measured e2e {measured} != analytical {sched.e2e}"
            )
