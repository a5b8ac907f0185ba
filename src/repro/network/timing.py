"""Delay model (paper Sec. II-B): forwarding, transmission, end-to-end.

All times are exact :class:`fractions.Fraction` seconds so that the SMT
encoding, the validator, and the simulator agree bit-for-bit.

The paper's Table I parameters: 1500-byte frames on 10 Mbit/s links give
``ld = 1.2 ms``; switch forwarding delay ``sd = 5 us``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from ..errors import EncodingError
from ..fieldcheck import check_fields

Number = Union[int, Fraction, float, str]


def as_seconds(value: Number) -> Fraction:
    """Coerce a numeric time value to exact seconds."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value).limit_denominator(10**12)


def milliseconds(value: Number) -> Fraction:
    return as_seconds(value) / 1000


def microseconds(value: Number) -> Fraction:
    return as_seconds(value) / 1_000_000


def transmission_delay(frame_bytes: int, link_rate_bps: int) -> Fraction:
    """Time to clock one frame onto a link (``ld`` in the paper).

    >>> transmission_delay(1500, 10_000_000)   # Table I parameters
    Fraction(3, 2500)
    """
    if frame_bytes <= 0:
        raise ValueError("frame size must be positive")
    if link_rate_bps <= 0:
        raise ValueError("link rate must be positive")
    return Fraction(8 * frame_bytes, link_rate_bps)


@dataclass(frozen=True)
class DelayModel:
    """Per-network delay parameters.

    Attributes:
        sd: switch forwarding delay (store-and-forward lookup time).
        ld: link transmission delay for the scheduled frames.

    The paper (footnote 1) assumes these are network-wide constants "only
    for simplifying the discussion"; the dataclass mirrors that while
    keeping the door open for per-link overrides via subclassing.
    """

    sd: Fraction = field(metadata={"ge": 0})
    ld: Fraction = field(metadata={"gt": 0})

    def __post_init__(self) -> None:
        check_fields(self, EncodingError)

    @staticmethod
    def table1() -> "DelayModel":
        """The General Motors case-study parameters from Table I."""
        return DelayModel(sd=microseconds(5), ld=transmission_delay(1500, 10_000_000))

    def hop_delay(self) -> Fraction:
        """Minimum added delay per switch hop: forward + transmit."""
        return self.sd + self.ld
