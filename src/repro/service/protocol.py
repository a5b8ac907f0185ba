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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Optional

from ..core.problem import ControlApplication, SynthesisProblem
from ..core.seeding import StrategySignature
from ..core.solution import MessageSchedule, parse_rational
from ..core.synthesizer import SynthesisOptions
from ..errors import ReproError
from ..fieldcheck import check_fields
from ..network.graph import Network
from ..network.timing import DelayModel
from ..stability.piecewise import Segment, StabilitySpec

#: Request option keys accepted from the wire: what names the formula,
#: plus the search knobs a client may set (everything else is rejected
#: so a typo'd knob cannot silently solve the wrong problem).
_WIRE_OPTION_KEYS = frozenset(f.name for f in fields(StrategySignature)) | {"max_conflicts"}

#: The exact keys of a wire problem, of its ``delays`` and of each app (the
#: last two name the fields of ``DelayModel`` and ``ControlApplication``).
_PROBLEM_KEYS = frozenset({"nodes", "links", "delays", "apps"})
_DELAY_KEYS = frozenset({"sd", "ld"})
_APP_KEYS = frozenset({"name", "sensor", "controller", "period",
                       "frame_bytes", "stability"})


class ProtocolError(ValueError):
    """A malformed frame or an invalid wire payload."""


@contextmanager
def rejecting(what: str) -> Iterator[None]:
    """Turn what a malformed ``what`` raises while it is decoded — the
    library's own errors (a duplicate node, a field its constructor
    refuses) or those of a wrong shape — into one ProtocolError."""
    try:
        yield
    except ProtocolError:
        raise
    except (ReproError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {what}: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# Problem serialization
# ---------------------------------------------------------------------------


def _frac_to_wire(value: Fraction) -> str:
    return str(Fraction(value))


def _frac_from_wire(value: object) -> Fraction:
    """A JSON integer, or a string in ``str(Fraction)`` form (see
    :func:`~repro.core.solution.parse_rational`)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return parse_rational(value)


def _keyed(wire: object, keys: frozenset, what: str) -> Dict[str, Any]:
    """``wire`` when it is an object with exactly ``keys``."""
    if not isinstance(wire, dict) or wire.keys() != keys:
        raise ProtocolError(f"{what} must be an object with keys {sorted(keys)}")
    return wire


def _rows(wire: object, arity: int, what: str) -> List[List[Any]]:
    """``wire`` when it is a list of ``arity``-element lists."""
    if not isinstance(wire, list) or any(
            type(row) is not list or len(row) != arity for row in wire):
        raise ProtocolError(f"{what} must be a list of {arity}-element lists")
    return wire


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


def problem_from_wire(wire: object) -> SynthesisProblem:
    """Rebuild a :class:`SynthesisProblem` from its wire form.  Only the
    containers are checked here (exact key sets, list arities); each
    value is checked by the constructor it lands in."""
    with rejecting("problem"):
        keyed = _keyed(wire, _PROBLEM_KEYS, "problem")
        net = Network()
        adders = {"switch": net.add_switch, "sensor": net.add_sensor,
                  "controller": net.add_controller}
        for name, kind in _rows(keyed["nodes"], 2, "nodes"):
            adders[kind](name)
        for u, v in _rows(keyed["links"], 2, "links"):
            net.add_link(u, v)
        apps = []
        for entry in keyed["apps"]:
            entry = _keyed(entry, _APP_KEYS, "an app")
            rows = entry["stability"]
            apps.append(ControlApplication(**dict(
                entry, period=_frac_from_wire(entry["period"]),
                stability=None if rows is None else StabilitySpec(tuple(
                    Segment(*map(_frac_from_wire, row))
                    for row in _rows(rows, 4, "stability"))))))
        delays = _keyed(keyed["delays"], _DELAY_KEYS, "delays")
        problem = SynthesisProblem(net, apps, DelayModel(
            **{key: _frac_from_wire(value) for key, value in delays.items()}))
    return problem


def options_from_wire(wire: object) -> SynthesisOptions:
    """Build :class:`SynthesisOptions` from a request's options dict."""
    if wire is None:
        return SynthesisOptions()
    if not isinstance(wire, dict):
        raise ProtocolError("options payload must be a dict")
    unknown = set(wire) - _WIRE_OPTION_KEYS
    if unknown:
        raise ProtocolError(f"unknown option keys: {sorted(unknown)}")
    with rejecting("options"):
        options = SynthesisOptions(**wire)
    return options


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
    with rejecting("schedule"):
        schedules = {entry["uid"]: MessageSchedule.from_dict(entry["uid"],
                                                             entry)
                     for entry in wire}
    if len(schedules) != len(wire):
        raise ProtocolError("a message is scheduled twice")
    return schedules


# ---------------------------------------------------------------------------
# Requests (the server's internal admission unit)
# ---------------------------------------------------------------------------


@dataclass
class SynthesisRequest:
    """One admitted solve request (in-process or decoded from the wire).

    ``deadline`` is a *relative* budget in seconds from admission; the
    server converts it to an absolute monotonic deadline at admission
    time, so queue wait counts against it (a request that waited out its
    whole budget in the queue gets a ``timeout`` response without ever
    occupying a worker).  Every field is checked (``ProtocolError``): a
    ``NaN`` deadline would never expire, and a ``bool`` is no seconds.
    """

    id: str
    problem: SynthesisProblem
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    deadline: Optional[float] = field(default=None, metadata={"gt": 0})

    def __post_init__(self) -> None:
        check_fields(self, ProtocolError)
        if not self.id:
            raise ProtocolError("request id must be a non-empty string")


def request_from_wire(frame: Dict[str, Any]) -> SynthesisRequest:
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
    except (ValueError, RecursionError) as exc:
        # Bad UTF-8, bad JSON, a >4300-digit int, or arrays nested
        # deeper than the parser recurses.
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got "
                            f"{type(frame).__name__}")
    return frame
