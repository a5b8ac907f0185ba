"""Solution serialization and 802.1Qbv configuration export.

Two deployment artifacts:

* :func:`solution_to_dict` / :func:`solution_from_dict` — lossless JSON-
  friendly round trip of a synthesized schedule (routes and release
  times as exact rational strings), so schedules can be stored, diffed,
  and re-validated offline.
* :func:`render_switch_configs` — the per-switch configuration a TSN
  commissioning tool would push: the forwarding look-up table (eta) and
  the cyclic gate control list windows per egress port.
"""

from __future__ import annotations

from typing import List

from ..errors import ValidationError
from .problem import SynthesisProblem
from .solution import MessageSchedule, Solution


def solution_to_dict(solution: Solution) -> dict:
    """A JSON-serializable description of the schedule."""
    return {
        "mode": solution.mode,
        "synthesis_time": solution.synthesis_time,
        "hyperperiod": str(solution.problem.hyperperiod),
        "messages": {
            uid: sched.to_dict()
            for uid, sched in sorted(solution.schedules.items())
        },
    }


def solution_from_dict(problem: SynthesisProblem, data: dict) -> Solution:
    """Rebuild a :class:`Solution` against its problem definition."""
    try:
        schedules = {uid: MessageSchedule.from_dict(uid, entry)
                     for uid, entry in data["messages"].items()}
        return Solution(
            problem,
            schedules,
            synthesis_time=float(data.get("synthesis_time", 0.0)),
            mode=data.get("mode", "stability"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed solution dictionary: {exc}") from exc


def render_switch_configs(solution: Solution) -> str:
    """Human-readable per-switch configuration (eta tables + GCLs)."""
    lines: List[str] = []
    hp = solution.problem.hyperperiod
    lines.append(f"# 802.1Qbv configuration (hyper-period {float(hp) * 1000} ms)")
    gcls = solution.build_gcls()
    etas = solution.eta_tables()
    for switch in sorted(gcls):
        lines.append(f"\nswitch {switch}:")
        table = etas.get(switch, {})
        if table:
            lines.append("  forwarding (eta):")
            for uid, nxt in sorted(table.items()):
                lines.append(f"    {uid} -> port[{nxt}]")
        for peer, entries in sorted(gcls[switch].items()):
            if not entries:
                continue
            lines.append(f"  gate control list, port -> {peer}:")
            for e in entries:
                lines.append(
                    f"    open {float(e.start) * 1000:9.4f} ms .. "
                    f"{float(e.end) * 1000:9.4f} ms  queue {e.queue}  ({e.uid})"
                )
    return "\n".join(lines)
