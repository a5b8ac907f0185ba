"""Flows and message instances (paper Sec. II-C).

A control application's sensor emits one message per sampling period; the
series of instances is a *flow*.  All instances inside one hyper-period
(the LCM of all periods) constitute the message set ``M`` that the
synthesizer schedules and routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence

from ..errors import EncodingError
from ..fieldcheck import check_fields
from .timing import Number, as_seconds


@dataclass(frozen=True)
class Flow:
    """A periodic sensor-to-controller stream.

    Attributes:
        name: unique flow identifier (conventionally the app name).
        source: sensor node name.
        dest: controller node name.
        period: sampling period ``h_i`` in seconds.
        frame_bytes: Ethernet frame size for each message instance.
    """

    name: str
    source: str
    dest: str
    period: Fraction = field(metadata={"gt": 0})
    frame_bytes: int = field(default=1500, metadata={"ge": 1})

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", as_seconds(self.period))
        check_fields(self, EncodingError)


@dataclass(frozen=True)
class MessageInstance:
    """The j-th message ``m_{i,j}`` of a flow inside the hyper-period.

    ``release`` is the sensor sampling instant ``j * h_i`` at which the
    message enters the network (time-driven sampling).
    """

    flow: Flow
    index: int
    release: Fraction

    @property
    def uid(self) -> str:
        return f"{self.flow.name}#{self.index}"

    def __repr__(self) -> str:
        return f"MessageInstance({self.uid} @ {self.release})"


def hyperperiod(periods: Sequence[Fraction]) -> Fraction:
    """LCM of rational periods: lcm(numerators) / gcd(denominators)."""
    if not periods:
        raise EncodingError("hyperperiod of an empty period set")
    fracs = [as_seconds(p) for p in periods]
    if any(p <= 0 for p in fracs):
        raise EncodingError("periods must be positive")
    num = fracs[0].numerator
    den = fracs[0].denominator
    for p in fracs[1:]:
        num = math.lcm(num, p.numerator)
        den = math.gcd(den, p.denominator)
    return Fraction(num, den)


def expand_messages(flows: Sequence[Flow]) -> List[MessageInstance]:
    """All message instances of one hyper-period, in release-time order."""
    names = [f.name for f in flows]
    if len(set(names)) != len(names):
        raise EncodingError("duplicate flow names")
    hp = hyperperiod([f.period for f in flows])
    out: List[MessageInstance] = []
    for flow in flows:
        count = int(hp / flow.period)
        for j in range(count):
            out.append(MessageInstance(flow, j, j * flow.period))
    out.sort(key=lambda m: (m.release, m.flow.name, m.index))
    return out


def messages_by_flow(
    messages: Sequence[MessageInstance],
) -> Dict[str, List[MessageInstance]]:
    """Group message instances by flow name (sorted by index)."""
    grouped: Dict[str, List[MessageInstance]] = {}
    for m in messages:
        grouped.setdefault(m.flow.name, []).append(m)
    for name in grouped:
        grouped[name].sort(key=lambda m: m.index)
    return grouped
