"""The service wire protocol: JSON lines, one frame per line.

Client -> server frames (``op`` selects the operation)::

    {"op": "solve",  "id": "r1", "problem": {...}, "options": {...},
     "deadline": 5.0}
    {"op": "batch",  "requests": [{...solve frame...}, ...]}
    {"op": "cancel", "id": "r1"}
    {"op": "stats"}
    {"op": "drain"}

Server -> client frames (``type`` names the outcome; every solve
eventually gets exactly one)::

    {"type": "result",     "id": "r1", "status": "sat", ...}
    {"type": "timeout",    "id": "r1", ...}
    {"type": "cancelled",  "id": "r1", ...}
    {"type": "overloaded", "id": "r1", "queue_depth": N, ...}  # load shed
    {"type": "rejected",   "id": "r1", "reason": "draining"}
    {"type": "error",      "id": "r1", "error": "..."}
    {"type": "stats",      "metrics": {...}}

Problems travel as order-insensitive JSON (:func:`problem_to_wire` /
:func:`problem_from_wire`); rationals are exact ``"num/den"`` strings,
never floats, so a round-tripped problem fingerprints identically to
the original.  Schedules in ``result`` frames and in cache entries use
the same convention (:func:`schedules_to_wire` /
:func:`schedules_from_wire`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.problem import ControlApplication, SynthesisProblem
from ..core.seeding import StrategySignature
from ..core.solution import MessageSchedule, parse_rational
from ..core.synthesizer import SynthesisOptions
from ..errors import EncodingError
from ..network.graph import Network
from ..network.timing import DelayModel
from ..stability.piecewise import Segment, StabilitySpec

#: Response types a solve submission can resolve to.
RESPONSE_TYPES = frozenset({
    "result", "timeout", "cancelled", "overloaded", "rejected", "error",
})

#: Request option keys accepted from the wire: what names the formula,
#: plus the search knobs a client may set (everything else is rejected
#: so a typo'd knob cannot silently solve the wrong problem).
_WIRE_OPTION_KEYS = frozenset(f.name for f in fields(StrategySignature)) | {
    "max_conflicts",
}

#: Each wire option key's annotation on :class:`SynthesisOptions`.
_WIRE_OPTION_TYPES = {f.name: str(f.type) for f in fields(SynthesisOptions)
                      if f.name in _WIRE_OPTION_KEYS}

#: The JSON values each of those annotations accepts.  A JSON ``true``
#: is an ``int`` to Python, so a ``bool`` passes only where the
#: annotation is ``bool``: ``"routes": true`` is no route limit.
_JSON_TYPES: Dict[str, Tuple[type, ...]] = {
    "str": (str,), "int": (int,), "bool": (bool,),
    "Optional[int]": (int, type(None)),
}


class ProtocolError(ValueError):
    """A malformed frame or an invalid wire payload."""


# ---------------------------------------------------------------------------
# Problem serialization
# ---------------------------------------------------------------------------


def _frac_to_wire(value: Fraction) -> str:
    return str(Fraction(value))


def _frac_from_wire(value: object) -> Fraction:
    """A JSON integer, or a string in ``str(Fraction)`` form (see
    :func:`~repro.core.solution.parse_rational`)."""
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def app_to_wire(app: ControlApplication) -> dict:
    """JSON-safe representation of one control application."""
    stability = None
    if app.stability is not None:
        stability = [
            [_frac_to_wire(s.alpha), _frac_to_wire(s.beta),
             _frac_to_wire(s.l_lo), _frac_to_wire(s.l_hi)]
            for s in app.stability.segments
        ]
    return {
        "name": app.name,
        "sensor": app.sensor,
        "controller": app.controller,
        "period": _frac_to_wire(app.period),
        "frame_bytes": app.frame_bytes,
        "stability": stability,
    }


def problem_to_wire(problem: SynthesisProblem) -> dict:
    """JSON-safe representation of a problem (exact rationals).

    Also the problem's canonical form: nodes and links are sorted here,
    and :mod:`repro.service.fingerprint` hashes this dict with the
    applications sorted by name.
    """
    net = problem.network
    return {
        "nodes": [[name, net.kind(name).value] for name in sorted(net.nodes)],
        "links": [sorted(link) for link in sorted(
            tuple(sorted(l)) for l in net.links)],
        "delays": {"sd": _frac_to_wire(problem.delays.sd),
                   "ld": _frac_to_wire(problem.delays.ld)},
        "apps": [app_to_wire(app) for app in problem.apps],
    }


def problem_from_wire(wire: dict) -> SynthesisProblem:
    """Rebuild a :class:`SynthesisProblem` from its wire form."""
    if not isinstance(wire, dict):
        raise ProtocolError(f"problem payload must be a dict, got "
                            f"{type(wire).__name__}")
    try:
        net = Network()
        adders = {"switch": net.add_switch, "sensor": net.add_sensor,
                  "controller": net.add_controller}
        for name, kind in wire["nodes"]:
            adders[kind](name)
        for u, v in wire["links"]:
            net.add_link(u, v)
        delays = DelayModel(sd=_frac_from_wire(wire["delays"]["sd"]),
                            ld=_frac_from_wire(wire["delays"]["ld"]))
        apps = []
        for entry in wire["apps"]:
            stability = None
            if entry.get("stability") is not None:
                stability = StabilitySpec(tuple(
                    Segment(alpha=_frac_from_wire(a), beta=_frac_from_wire(b),
                            l_lo=_frac_from_wire(lo), l_hi=_frac_from_wire(hi))
                    for a, b, lo, hi in entry["stability"]
                ))
            apps.append(ControlApplication(
                name=entry["name"],
                sensor=entry["sensor"],
                controller=entry["controller"],
                period=_frac_from_wire(entry["period"]),
                stability=stability,
                frame_bytes=entry.get("frame_bytes", 1500),
            ))
        return SynthesisProblem(net, apps, delays)
    except ProtocolError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError,
            EncodingError) as exc:
        raise ProtocolError(f"invalid problem payload: "
                            f"{type(exc).__name__}: {exc}") from None


def options_from_wire(wire: Optional[dict]) -> SynthesisOptions:
    """Build :class:`SynthesisOptions` from a request's options dict."""
    if wire is None:
        return SynthesisOptions()
    if not isinstance(wire, dict):
        raise ProtocolError("options payload must be a dict")
    unknown = set(wire) - _WIRE_OPTION_KEYS
    if unknown:
        raise ProtocolError(f"unknown option keys: {sorted(unknown)}")
    for key, value in wire.items():
        kind = _WIRE_OPTION_TYPES[key]
        if (isinstance(value, bool) != (kind == "bool")
                or not isinstance(value, _JSON_TYPES[kind])):
            raise ProtocolError(f"option {key}={value!r:.40} is not {kind}")
    try:
        return SynthesisOptions(**wire)
    except EncodingError as exc:
        raise ProtocolError(f"invalid options: {exc}") from None


def schedules_to_wire(schedules: Dict[str, MessageSchedule]) -> List[dict]:
    """Winning schedules as JSON (uid, route, release table, e2e)."""
    return [{"uid": uid, **schedules[uid].to_dict()}
            for uid in sorted(schedules)]


def schedules_from_wire(wire: object) -> Dict[str, MessageSchedule]:
    """The inverse of :func:`schedules_to_wire` (uid -> schedule).

    Only the shape is checked here; whether the schedules solve a
    problem is :func:`repro.core.collect_violations`' question.
    """
    if not isinstance(wire, list):
        raise ProtocolError("schedules must be a list")
    try:
        schedules = {entry["uid"]: MessageSchedule.from_dict(entry["uid"],
                                                             entry)
                     for entry in wire}
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid schedule payload: "
                            f"{type(exc).__name__}: {exc}") from None
    if len(schedules) != len(wire):
        raise ProtocolError("a message is scheduled twice")
    return schedules


# ---------------------------------------------------------------------------
# Requests (the server's internal admission unit)
# ---------------------------------------------------------------------------


def is_positive_seconds(value) -> bool:
    """True for a finite positive ``int`` or ``float``, never a ``bool``:
    the test every deadline in seconds passes, on the wire or in a
    server policy."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and 0 < value <= sys.float_info.max)


@dataclass
class SynthesisRequest:
    """One admitted solve request (in-process or decoded from the wire).

    ``deadline`` is a *relative* budget in seconds from admission; the
    server converts it to an absolute monotonic deadline at admission
    time, so queue wait counts against it (a request that waited out its
    whole budget in the queue gets a ``timeout`` response without ever
    occupying a worker).  It must be a finite positive ``int`` or
    ``float``: a ``NaN`` would never expire, and a ``bool`` is no
    number of seconds.
    """

    id: str
    problem: SynthesisProblem
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.id or not isinstance(self.id, str):
            raise ProtocolError("request id must be a non-empty string")
        deadline = self.deadline
        if deadline is not None and not is_positive_seconds(deadline):
            raise ProtocolError(f"deadline must be a finite positive "
                                f"number of seconds, got {deadline!r:.40}")


def request_from_wire(frame: dict) -> SynthesisRequest:
    """Decode one ``solve`` frame into a :class:`SynthesisRequest`."""
    return SynthesisRequest(
        id=frame.get("id", ""),
        problem=problem_from_wire(frame.get("problem")),
        options=options_from_wire(frame.get("options")),
        deadline=frame.get("deadline"),
    )


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(frame: dict) -> bytes:
    """One frame -> one JSON line (newline-terminated bytes)."""
    return (json.dumps(frame, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def decode_frame(line: bytes) -> dict:
    """One JSON line -> one frame dict (raises ProtocolError on junk)."""
    try:
        frame = json.loads(line.decode())
    except ValueError as exc:   # bad UTF-8, bad JSON, a >4300-digit int
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got "
                            f"{type(frame).__name__}")
    return frame
