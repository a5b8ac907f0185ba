"""Synthesis problem definition (paper Sec. III).

Inputs: the network topology, the delay parameters ``sd``/``ld``, and per
control application its period, endpoints, and stability specification
(the piecewise-linear lower bound of its jitter-margin curve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence

from ..errors import EncodingError
from ..fieldcheck import check_fields
from ..network.frames import Flow, MessageInstance, expand_messages, hyperperiod
from ..network.graph import Network, NodeKind
from ..network.timing import DelayModel, as_seconds
from ..stability.piecewise import StabilitySpec


@dataclass(frozen=True)
class ControlApplication:
    """One control application ``Lambda_i`` (sensor, controller, plant).

    ``stability`` carries the (alpha, beta, L) segments of Eq. (2); it may
    be None for applications synthesized in deadline-only mode.
    """

    name: str
    sensor: str
    controller: str
    period: Fraction = field(metadata={"gt": 0})
    stability: Optional[StabilitySpec] = None
    frame_bytes: int = field(default=1500, metadata={"ge": 1})

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", as_seconds(self.period))
        check_fields(self, EncodingError)

    @property
    def flow(self) -> Flow:
        return Flow(self.name, self.sensor, self.controller, self.period,
                    self.frame_bytes)


@dataclass
class SynthesisProblem:
    """A complete joint routing + scheduling instance."""

    network: Network
    apps: List[ControlApplication]
    delays: DelayModel

    def __post_init__(self) -> None:
        names = [a.name for a in self.apps]
        if len(set(names)) != len(names):
            raise EncodingError("duplicate application names")
        if not self.apps:
            raise EncodingError("a problem needs at least one application")
        for app in self.apps:
            for node, kind in ((app.sensor, NodeKind.SENSOR),
                               (app.controller, NodeKind.CONTROLLER)):
                if node not in self.network:
                    raise EncodingError(
                        f"app {app.name!r}: unknown {kind.value} {node!r}")
                if self.network.kind(node) != kind:
                    raise EncodingError(
                        f"app {app.name!r}: {node!r} is not a {kind.value}")
            if app.period < self.delays.ld:
                raise EncodingError(
                    f"app {app.name!r}: period below the link transmission "
                    "delay; successive frames of the flow would collide on "
                    "the sensor link"
                )

    @cached_property
    def hyperperiod(self) -> Fraction:
        return hyperperiod([a.period for a in self.apps])

    @cached_property
    def messages(self) -> List[MessageInstance]:
        """All message instances of one hyper-period (the set ``M``)."""
        return expand_messages([a.flow for a in self.apps])

    @cached_property
    def app_by_name(self) -> dict:
        return {a.name: a for a in self.apps}

    def app_of(self, message: MessageInstance) -> ControlApplication:
        return self.app_by_name[message.flow.name]

    @property
    def num_messages(self) -> int:
        return len(self.messages)

    def require_stability_specs(self) -> None:
        missing = [a.name for a in self.apps if a.stability is None]
        if missing:
            raise EncodingError(
                "stability-aware synthesis requires a StabilitySpec for every "
                f"application; missing: {missing}"
            )
