"""Synthesis output: routes, release tables, per-app reports, GCL export.

A :class:`Solution` holds the values of the paper's decision variables —
``eta_ijk`` (output ports, via the selected route) and ``gamma_ijk``
(release times) — and derives everything the evaluation reports: per-app
latency ``L_i``, jitter ``J_i`` (Eq. 9), stability margins (Eq. 3), and
the per-switch 802.1Qbv artifacts (forwarding tables and gate control
lists) that the discrete-event simulator executes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from ..errors import ValidationError
from ..fieldcheck import check_fields
from ..network.switch import TsnSwitch
from .problem import SynthesisProblem

#: A rational as ``str(Fraction)`` writes it.  ``Fraction`` also parses
#: forms such as ``"1.5"``, ``" 3/4 "``, ``"1_000"`` and
#: ``"1e999999999"``, the last of which takes unbounded time to build.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: object) -> Fraction:
    """``text`` as a ``Fraction`` when it is in ``str(Fraction)`` form.

    The one parser for rationals that arrive from outside the process —
    service requests, worker pipes, cache files — so a hostile string
    costs bounded time.  Anything else, a zero denominator included,
    raises ``ValueError``.
    """
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected a num/den rational, got {text!r:.40}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r:.40}") from None


@dataclass(frozen=True)
class MessageSchedule:
    """Route and release times of one message instance."""

    uid: str
    app: str
    route: List[str]
    gammas: Dict[str, Fraction]
    release: Fraction
    e2e: Fraction

    @property
    def arrival(self) -> Fraction:
        """Arrival time at the controller."""
        return self.release + self.e2e

    def to_dict(self) -> Dict[str, object]:
        """JSON form, exact rationals as strings (the uid is the
        caller's key)."""
        return {
            "app": self.app,
            "route": list(self.route),
            "release": str(self.release),
            "e2e": str(self.e2e),
            "gammas": {node: str(g) for node, g in self.gammas.items()},
        }

    @classmethod
    def from_dict(cls, uid: str, data: Dict[str, object]) -> "MessageSchedule":
        """The inverse of :meth:`to_dict`.  Raises ``ValueError``,
        ``KeyError``, ``TypeError`` or ``AttributeError`` on anything
        :meth:`to_dict` does not write."""
        schedule = cls(uid=uid, app=data["app"], route=data["route"],
                       gammas={node: parse_rational(g)
                               for node, g in data["gammas"].items()},
                       release=parse_rational(data["release"]),
                       e2e=parse_rational(data["e2e"]))
        check_fields(schedule)
        return schedule


@dataclass(frozen=True)
class AppReport:
    """Per-application evaluation row (the paper's Table I columns)."""

    name: str
    period: Fraction
    latency: Fraction          # L_i = min_j e2e_ij
    jitter: Fraction           # J_i = max_j - min_j
    max_e2e: Fraction
    margin: float              # delta_i of Eq. (3); -inf outside the spec
    stable: Optional[bool]     # None when the app has no stability spec


class Solution:
    """A complete synthesized schedule for one problem."""

    def __init__(
        self,
        problem: SynthesisProblem,
        schedules: Dict[str, MessageSchedule],
        synthesis_time: float = 0.0,
        mode: str = "stability",
    ):
        self.problem = problem
        self.schedules = schedules
        self.synthesis_time = synthesis_time
        self.mode = mode

    # ------------------------------------------------------------------
    # The paper's decision variables
    # ------------------------------------------------------------------

    def eta_tables(self) -> Dict[str, Dict[str, str]]:
        """Per-switch forwarding tables: switch -> {uid -> next node}."""
        tables: Dict[str, Dict[str, str]] = {}
        for sched in self.schedules.values():
            for u, v in zip(sched.route[1:-1], sched.route[2:]):
                tables.setdefault(u, {})[sched.uid] = v
        return tables

    def gamma_tables(self) -> Dict[str, Dict[str, Fraction]]:
        """Per-switch release tables: switch -> {uid -> gamma}."""
        tables: Dict[str, Dict[str, Fraction]] = {}
        for sched in self.schedules.values():
            for node, g in sched.gammas.items():
                tables.setdefault(node, {})[sched.uid] = g
        return tables

    # ------------------------------------------------------------------
    # Evaluation reports (Eq. 9 + Table I)
    # ------------------------------------------------------------------

    def app_e2es(self, app_name: str) -> List[Fraction]:
        out = [s.e2e for s in self.schedules.values() if s.app == app_name]
        if not out:
            raise ValidationError(f"no scheduled messages for app {app_name!r}")
        return out

    def app_report(self, app_name: str) -> AppReport:
        app = self.problem.app_by_name[app_name]
        e2es = self.app_e2es(app_name)
        latency = min(e2es)
        jitter = max(e2es) - latency
        if app.stability is not None:
            margin = app.stability.margin(latency, jitter)
            stable: Optional[bool] = margin >= 0
        else:
            margin, stable = math.nan, None
        return AppReport(
            name=app_name,
            period=app.period,
            latency=latency,
            jitter=jitter,
            max_e2e=max(e2es),
            margin=margin,
            stable=stable,
        )

    def reports(self) -> List[AppReport]:
        return [self.app_report(a.name) for a in self.problem.apps]

    def all_stable(self) -> bool:
        """Eq. (10): every application's margin is non-negative."""
        return all(r.stable for r in self.reports() if r.stable is not None)

    # ------------------------------------------------------------------
    # 802.1Qbv artifacts
    # ------------------------------------------------------------------

    def program_switches(self) -> Dict[str, TsnSwitch]:
        """Instantiate and program TSN switches from the eta/gamma tables."""
        net = self.problem.network
        switches = {
            name: TsnSwitch(name, sorted(net.neighbors(name)), self.problem.delays.sd)
            for name in net.switches
        }
        for sched in self.schedules.values():
            for u, v in zip(sched.route[1:-1], sched.route[2:]):
                switches[u].program(sched.uid, v, sched.gammas[u])
        return switches

    def build_gcls(self):
        """Cyclic gate control lists for every switch (validates overlap)."""
        hp = self.problem.hyperperiod
        ld = self.problem.delays.ld
        return {
            name: sw.build_gcl(ld, hp)
            for name, sw in self.program_switches().items()
        }

    def __repr__(self) -> str:
        return (
            f"Solution(mode={self.mode}, messages={len(self.schedules)}, "
            f"time={self.synthesis_time:.2f}s)"
        )
