"""Fuzzers for every entry point that decodes outside input.

Each entry point either decodes an input to a value whose re-encoding
decodes to the same value (a problem: to the same fingerprint), or
raises ``ProtocolError`` (a cache file: ``ValueError``), and answers
within the per-example deadline.  Inputs are JSON trees, raw bytes, and
mutations of what the encoders really write.  Every run is
derandomized, with a fixed example budget, so it is the same run on
every machine.
"""

import copy
import json
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.seeding import Knowledge
from repro.core.synthesizer import SynthesisOptions
from repro.service import problem_fingerprint, problem_to_wire
from repro.service.cache import CacheEntry
from repro.service.protocol import (ProtocolError, decode_frame, encode_frame,
                                    options_from_wire, problem_from_wire,
                                    request_from_wire, schedules_from_wire,
                                    schedules_to_wire)

from .helpers import family_problem

FUZZ = settings(max_examples=150, derandomize=True, deadline=1000)

#: Values that sit on a boundary somewhere in the wire format.
EDGES = st.sampled_from([
    None, True, False, 0, 1, -1, 2, 1.5, float("nan"), float("inf"),
    10 ** 20, "", "0", "-1", "1/0", "3/4", "-3/4", "1e3000000", "switch",
    "sensor", "A", "S0", [], {}, [[]], ["A", "B"],
])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8) | EDGES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)

#: What a real encoder writes: a two-app problem, its options and one
#: message's schedule.
PROBLEM = problem_to_wire(family_problem([0, 1]))
OPTIONS = {"mode": "stability", "routes": 2, "stages": 1,
           "path_cutoff": None, "repair": False, "max_conflicts": 50}
SCHEDULES = [{"uid": "app0#0", "app": "app0", "route": ["S0", "A", "B", "C0"],
              "release": "0", "e2e": "401/100000",
              "gammas": {"A": "401/200000", "B": "301/100000"}}]
ENTRY = json.loads(json.dumps(CacheEntry(
    fingerprint="f" * 32, status="sat",
    knowledge=Knowledge(
        SynthesisOptions(routes=2).signature,
        clauses=((("b", "p/R[app0#0][0]", True),),
                 (("a", (("p/g[app0#0][A]", "1"),), "3/4", False, True),)),
        route_veto=(("app0#0", 1),)),
    schedules=SCHEDULES, work={"conflicts": 3}, created=1.5).to_json()))


def _paths(tree, prefix=()):
    """Every path from the root of a JSON tree to one of its nodes."""
    yield prefix
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _leaves(tree):
    if isinstance(tree, (dict, list)):
        for value in (tree.values() if isinstance(tree, dict) else tree):
            yield from _leaves(value)
    else:
        yield tree


@st.composite
def mutated(draw, base):
    """``base`` with up to three nodes replaced (by a boundary value, a
    leaf of ``base`` or any JSON tree), deleted, or given a sibling."""
    tree = copy.deepcopy(base)
    values = st.sampled_from(list(_leaves(base))) | EDGES | JSON
    for _ in range(draw(st.integers(0, 2))):
        paths = list(_paths(tree))
        path = paths[draw(st.integers(1, len(paths) - 1))]
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "replace":
            parent[key] = draw(values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(values)
        else:
            parent.insert(key, draw(values | st.just(parent[key])))
        if not isinstance(tree, (dict, list)) or not tree:
            break
    return tree


def _options_to_wire(options):
    return dict(asdict(options.signature), max_conflicts=options.max_conflicts)


@FUZZ
@given(st.binary(max_size=64)
       | JSON.map(lambda tree: json.dumps(tree).encode())
       | st.tuples(JSON, st.binary(max_size=4)).map(
           lambda pair: json.dumps(pair[0]).encode()[:-1] + pair[1]))
def test_decode_frame(line):
    try:
        frame = decode_frame(line)
    except ProtocolError:
        return
    assert isinstance(frame, dict)
    again = encode_frame(frame)
    assert encode_frame(decode_frame(again)) == again


@FUZZ
@given(JSON | mutated(OPTIONS))
def test_options_from_wire(wire):
    try:
        options = options_from_wire(wire)
    except ProtocolError:
        return
    assert options_from_wire(_options_to_wire(options)) == options


@FUZZ
@given(mutated(PROBLEM))
def test_problem_from_wire(wire):
    try:
        problem = problem_from_wire(wire)
    except ProtocolError:
        return
    again = problem_from_wire(json.loads(json.dumps(problem_to_wire(problem))))
    assert problem_fingerprint(again) == problem_fingerprint(problem)


@FUZZ
@given(mutated({"op": "solve", "id": "r1", "problem": PROBLEM,
                "options": OPTIONS, "deadline": 5.0}) | JSON)
def test_request_from_wire(frame):
    if not isinstance(frame, dict):
        return      # decode_frame refuses every frame but an object
    try:
        request = request_from_wire(frame)
    except ProtocolError:
        return
    again = request_from_wire(json.loads(json.dumps({
        "id": request.id, "problem": problem_to_wire(request.problem),
        "options": _options_to_wire(request.options),
        "deadline": request.deadline})))
    assert (again.id, again.options, again.deadline) == (
        request.id, request.options, request.deadline)
    assert (problem_fingerprint(again.problem, again.options)
            == problem_fingerprint(request.problem, request.options))


@FUZZ
@given(mutated(SCHEDULES) | JSON)
def test_schedules_from_wire(wire):
    try:
        schedules = schedules_from_wire(wire)
    except ProtocolError:
        return
    again = json.loads(json.dumps(schedules_to_wire(schedules)))
    assert schedules_from_wire(again) == schedules


@FUZZ
@given(mutated(ENTRY) | JSON)
def test_cache_entry_from_json(payload):
    try:
        entry = CacheEntry.from_json(payload)
    except ValueError:
        return
    again = json.loads(json.dumps(entry.to_json()))
    assert json.dumps(CacheEntry.from_json(again).to_json()) == json.dumps(
        entry.to_json())
