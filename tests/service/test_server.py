"""SynthesisServer: admission, batching, deadlines, cache, TCP."""

import asyncio
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from repro.core import (ControlApplication, Solution, SynthesisProblem,
                        collect_violations, solve)
from repro.core.solution import parse_rational
from repro.core.synthesizer import WORK_COUNTERS, SynthesisOptions
from repro.eval.workloads import (bottleneck_problem, detour_problem,
                                  gm_case_study)
from repro.runtime.faults import SLOW_START, FaultPlan, FaultSpec
from repro.service import (
    KnowledgeCache,
    ServiceClient,
    ServicePolicy,
    SynthesisRequest,
    SynthesisServer,
    encode_frame,
    fingerprint,
    problem_from_wire,
    problem_to_wire,
    request_over_tcp,
)
from repro.service.protocol import (ProtocolError, options_from_wire,
                                    request_from_wire, schedules_from_wire,
                                    schedules_to_wire)
from repro.service.server import FRAME_LIMIT

from repro.stability import StabilitySpec

from .helpers import (DELAYS, PERIOD, family_network, family_problem, run,
                      slow_problem)

#: Inline workers: deterministic, no forking, fast enough for admission
#: tests (process-mode behavior is covered by test_robustness).
INLINE = ServicePolicy(workers=1, worker_mode="inline")

#: ~0.3 s of real solving — long enough to observe queue behavior.
MODERATE_OPTS = SynthesisOptions(routes=2)


def moderate_problem():
    return gm_case_study(3)


def seed_cache(root, problem, options=None):
    """One cold solve through a server, leaving its entry under ``root``."""
    async def body():
        async with SynthesisServer(policy=INLINE,
                                   cache=KnowledgeCache(root)) as server:
            reply = await ServiceClient(server).solve(problem, options)
            assert reply["status"] == "sat"
    run(body())


def cache_file(root):
    """The only entry file under ``root`` and its parsed payload."""
    (path,) = Path(root).glob("*.json")
    return path, json.loads(path.read_text())


class TestSolve:
    def test_single_solve_response_shape(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                client = ServiceClient(server)
                reply = await client.solve(family_problem([0, 1]),
                                           deadline=30.0)
                assert reply["type"] == "result"
                assert reply["status"] == "sat"
                assert reply["schedules"]
                assert reply["statistics"]["decisions"] > 0
                assert reply["queue_wait"] >= 0.0
                assert reply["solve_wall"] > 0.0
                assert reply["attempts"] == 1
                assert reply["cache"] == {"hit": None}
        run(body())

    def test_batch_resolves_every_request(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                client = ServiceClient(server)
                requests = [
                    SynthesisRequest(id=f"b{i}",
                                     problem=family_problem([0, 1, i]))
                    for i in range(2, 5)
                ]
                replies = await client.solve_batch(requests)
                assert [r["id"] for r in replies] == ["b2", "b3", "b4"]
                assert all(r["type"] == "result" and r["status"] == "sat"
                           for r in replies)
        run(body())

    def test_duplicate_id_rejected(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                slow = await server.submit(SynthesisRequest(
                    id="dup", problem=moderate_problem(),
                    options=MODERATE_OPTS))
                dup = await server.submit(SynthesisRequest(
                    id="dup", problem=family_problem([0])))
                reply = await dup
                assert reply["type"] == "rejected"
                assert reply["reason"] == "duplicate-id"
                assert (await slow)["type"] == "result"
        run(body())

    def test_overload_sheds_typed_response(self):
        async def body():
            policy = ServicePolicy(workers=1, worker_mode="inline",
                                   max_queue=1)
            async with SynthesisServer(policy=policy) as server:
                first = await server.submit(SynthesisRequest(
                    id="r1", problem=moderate_problem(),
                    options=MODERATE_OPTS))
                await asyncio.sleep(0.1)    # r1 is now in-flight
                queued = await server.submit(SynthesisRequest(
                    id="r2", problem=family_problem([0])))
                shed = await server.submit(SynthesisRequest(
                    id="r3", problem=family_problem([1])))
                reply = await shed
                assert reply["type"] == "overloaded"
                assert reply["queue_depth"] == 1
                assert server.counters["overloaded"] == 1
                assert (await first)["type"] == "result"
                assert (await queued)["type"] == "result"
        run(body())

    def test_deadline_expires_in_queue(self):
        async def body():
            # "slow" sleeps 0.2 s before it solves, so the only dispatcher
            # stays busy far past the 10 ms budget below however fast the
            # solve itself is.
            plan = FaultPlan([FaultSpec(SLOW_START, strategy="slow",
                                        delay=0.2)])
            async with SynthesisServer(policy=INLINE,
                                       fault_plan=plan) as server:
                first = await server.submit(SynthesisRequest(
                    id="slow", problem=moderate_problem(),
                    options=MODERATE_OPTS))
                # One yield hands "slow" to the only dispatcher.  (A
                # longer sleep here can oversleep the whole solve when the
                # solver thread holds the GIL.)
                await asyncio.sleep(0)
                starved = await server.submit(SynthesisRequest(
                    id="starved", problem=family_problem([0]),
                    deadline=0.01))
                reply = await starved
                assert reply["type"] == "timeout"
                assert reply["expired_in"] == "queue"
                assert server.counters["queue_expired"] == 1
                assert (await first)["type"] == "result"
        run(body())

    def test_deadline_interrupts_mid_solve(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                client = ServiceClient(server)
                reply = await client.solve(slow_problem(), deadline=0.4)
                assert reply["type"] == "timeout"
                assert reply["solve_wall"] < 10.0
        run(body())

    def test_default_deadline_applies(self):
        async def body():
            policy = ServicePolicy(workers=1, worker_mode="inline",
                                   default_deadline=0.4)
            async with SynthesisServer(policy=policy) as server:
                client = ServiceClient(server)
                reply = await client.solve(slow_problem())
                assert reply["type"] == "timeout"
        run(body())


    @pytest.mark.parametrize("deadline", [float("nan"), float("inf"), True])
    def test_default_deadline_must_be_finite_positive_seconds(self,
                                                              deadline):
        with pytest.raises(ValueError):
            ServicePolicy(default_deadline=deadline)

    @pytest.mark.parametrize("deadline", [5, 0.5])
    def test_default_deadline_accepts_int_and_float(self, deadline):
        assert ServicePolicy(default_deadline=deadline).default_deadline \
            == deadline


class TestCacheIntegration:
    def test_one_fingerprint_per_miss_and_write_back(self, tmp_path,
                                                     monkeypatch):
        calls = []
        real = fingerprint.problem_fingerprint

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fingerprint, "problem_fingerprint", counted)

        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                reply = await ServiceClient(server).solve(
                    moderate_problem(), MODERATE_OPTS)
                assert reply["status"] == "sat"
                assert reply["cache"]["hit"] is None
                assert cache.counters["misses"] == 1
                assert cache.counters["stores"] == 1
        run(body())
        assert len(calls) == 1

    def test_exact_sat_repeat_is_served_and_certifies(self, tmp_path):
        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                cold = await client.solve(moderate_problem(), MODERATE_OPTS)
                # A fresh but equal problem object: the stored schedule
                # is certified against the request's own problem.
                problem = moderate_problem()
                warm = await client.solve(problem, MODERATE_OPTS)
                assert cold["cache"]["hit"] is None
                assert warm["cache"]["hit"] == "exact"
                assert warm["status"] == cold["status"] == "sat"
                assert warm["attempts"] == 0
                assert warm["statistics"] == dict.fromkeys(WORK_COUNTERS, 0)
                assert warm["stages_completed"] == 0
                assert warm["schedules"] == cold["schedules"]
                assert collect_violations(Solution(
                    problem, schedules_from_wire(warm["schedules"]))) == []
                assert cache.counters["stores"] == 1
                assert cache.counters["exact_hits"] == 1
                assert server.counters["cache_served"] == 1
                assert server.counters["cache_seeded"] == 0
        run(body())

    def test_schedule_violating_eq5_is_never_served(self, tmp_path):
        problem = family_problem([0, 1, 2])
        seed_cache(tmp_path, problem)
        path, payload = cache_file(tmp_path)
        # Message 1 rides message 0's switches at message 0's release
        # times: well-formed, every per-message check holds, and the two
        # collide on their shared switch-to-switch links.
        first, second = payload["schedules"][:2]
        second["route"] = ([second["route"][0]] + first["route"][1:-1]
                           + [second["route"][-1]])
        second["gammas"] = dict(first["gammas"])
        second["e2e"] = first["e2e"]
        path.write_text(json.dumps(payload))
        tampered = collect_violations(Solution(
            problem, schedules_from_wire(payload["schedules"])))
        assert tampered and all("(Eq. 5)" in v for v in tampered)

        async def body():
            cache = KnowledgeCache(tmp_path)
            assert len(cache) == 1          # well-formed: it loads
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                reply = await ServiceClient(server).solve(problem)
                assert reply["status"] == "sat"
                assert reply["attempts"] == 1
                assert reply["cache"] == {"hit": None}
                assert reply["schedules"] != payload["schedules"]
                assert collect_violations(Solution(
                    problem, schedules_from_wire(reply["schedules"]))) == []
                assert cache.counters["quarantined_entries"] == 1
                assert cache.counters["stores"] == 1
                assert server.counters["cache_served"] == 0
                # The fresh solve replaced the entry.
                assert cache_file(tmp_path)[1]["schedules"] == \
                    reply["schedules"]
        run(body())

    def test_unsat_and_ancestor_hits_still_solve(self, tmp_path):
        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                funnel = bottleneck_problem(3, period=Fraction(35, 10000))
                assert (await client.solve(funnel, MODERATE_OPTS))[
                    "status"] == "unsat"
                again = await client.solve(funnel, MODERATE_OPTS)
                assert again["cache"]["hit"] == "exact"
                assert again["status"] == "unsat"
                assert again["attempts"] == 1
                # A routes=1 sat entry holds a schedule and clauses; the
                # grown request has another fingerprint, so it misses
                # and solves cold.
                opts = SynthesisOptions(routes=1)
                await client.solve(family_problem([0, 1]), opts)
                grown = await client.solve(family_problem([0, 1, 2]), opts)
                assert grown["cache"]["hit"] is None
                assert grown["attempts"] == 1
                assert grown["statistics"]["decisions"] > 0
                assert grown["statistics"]["clauses_imported"] == 0
                assert server.counters["cache_seeded"] == 1
                assert server.counters["cache_served"] == 0
        run(body())

    def test_entry_without_schedules_solves_and_is_upgraded(self, tmp_path):
        problem = family_problem([0, 1])
        seed_cache(tmp_path, problem)
        path, payload = cache_file(tmp_path)
        del payload["schedules"]            # as written before schedules
        path.write_text(json.dumps(payload))

        async def body():
            cache = KnowledgeCache(tmp_path)
            assert len(cache) == 1
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                solved = await client.solve(problem)
                assert solved["cache"]["hit"] == "exact"
                assert solved["attempts"] == 1
                assert cache.counters["stores"] == 1     # the upgrade
                assert cache_file(tmp_path)[1]["schedules"] == \
                    solved["schedules"]
                served = await client.solve(problem)
                assert served["attempts"] == 0
                assert served["schedules"] == solved["schedules"]
        run(body())

    def test_deadline_mode_is_certified_without_stability_rows(self,
                                                               tmp_path):
        # Stable only below 4 ms of latency, against a 9 ms deadline.
        problem = SynthesisProblem(family_network(), [
            ControlApplication(f"app{i}", f"S{i}", f"C{i}", PERIOD,
                               StabilitySpec.single_line("1.5", "0.004"))
            for i in range(2)], DELAYS)
        opts = SynthesisOptions(mode="deadline")
        seed_cache(tmp_path, problem, opts)
        path, payload = cache_file(tmp_path)
        # Hold message 0 at its last switch until 1 ms before its period
        # ends: the deadline still holds, the stability bound not.
        entry = payload["schedules"][0]
        last = entry["route"][-2]
        late = PERIOD - 2 * DELAYS.ld
        entry["gammas"][last] = str(late)
        entry["e2e"] = str(late + DELAYS.ld)
        path.write_text(json.dumps(payload))
        solution = Solution(problem, schedules_from_wire(payload["schedules"]),
                            mode="deadline")
        assert collect_violations(solution, check_stability=False) == []
        assert any("stability margin" in v
                   for v in collect_violations(solution))

        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                reply = await ServiceClient(server).solve(problem, opts)
                assert reply["attempts"] == 0
                assert reply["schedules"] == payload["schedules"]
        run(body())

    def test_subset_ancestor_seeds_new_request(self, tmp_path):
        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                # Under one route per app the cold solve's root units
                # are exported, yet the grown request, another
                # fingerprint, misses: nothing of the entry seeds it.
                opts = SynthesisOptions(routes=1)
                await client.solve(family_problem([0, 1]), opts)
                grown = await client.solve(family_problem([0, 1, 2]), opts)
                assert grown["type"] == "result"
                assert grown["status"] == "sat"
                assert grown["cache"]["hit"] is None
                assert grown["statistics"]["clauses_imported"] == 0
                # The grown problem's own knowledge is stored too.
                assert cache.counters["stores"] == 2
                assert cache.counters["misses"] == 2
        run(body())

    def test_route_limited_entry_never_refutes_all_routes(self, tmp_path):
        # Regression: the routes=1 entry's veto names route indices, and
        # index 0 of the all-routes list was the detour, so a solve
        # seeded with it used to answer unsat.  The all-routes request
        # has another fingerprint, so it now misses; the pool-level
        # guard is tests/portfolio/test_status_matrix.py::
        # test_shared_knowledge_names_routes_by_the_same_index.
        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                limited = await client.solve(detour_problem(),
                                             SynthesisOptions(routes=1))
                assert limited["status"] == "unsat"
                complete = await client.solve(detour_problem())
                assert complete["cache"]["hit"] is None
                assert complete["status"] == "sat"
                assert cache.counters["stores"] == 2
        run(body())

    def test_stats_shape(self, tmp_path):
        async def body():
            cache = KnowledgeCache(tmp_path)
            async with SynthesisServer(policy=INLINE, cache=cache) as server:
                client = ServiceClient(server)
                await client.solve(family_problem([0, 1]))
                stats = client.stats()
                assert stats["requests"]["admitted"] == 1
                assert stats["requests"]["result"] == 1
                assert stats["latency"]["total"]["count"] == 1
                assert stats["latency"]["total"]["p99"] > 0.0
                assert stats["cache"]["entries"] == 1
                assert stats["workers"][0]["mode"] == "inline"
                assert stats["queue_depth"] == 0
        run(body())


#: ``schedules_to_wire`` of the solved two-app funnel as it leaves the
#: server in a ``result`` frame, recorded at b2a3628.  Clients parse
#: these bytes; the codec under them may be shared or moved, not changed.
PINNED_SCHEDULES_FRAME = (
    b'{"schedules":[{"app":"app0","e2e":"401/100000","gammas":'
    b'{"A":"401/200000","B":"301/100000"},"release":"0","route":'
    b'["S0","A","B","C0"],"uid":"app0#0"},{"app":"app1","e2e":'
    b'"301/100000","gammas":{"A":"201/200000","B":"201/100000"},'
    b'"release":"0","route":["S1","A","B","C1"],"uid":"app1#0"}]}\n'
)


class TestTcp:
    def test_schedule_frame_bytes_are_pinned(self):
        result = solve(bottleneck_problem(2), SynthesisOptions(routes=2))
        assert result.status == "sat"
        wire = schedules_to_wire(result.solution.schedules)
        assert encode_frame({"schedules": wire}) == PINNED_SCHEDULES_FRAME

    def test_solve_and_stats_over_the_wire(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                frames = [
                    {"op": "solve", "id": "w1",
                     "problem": problem_to_wire(family_problem([0, 1])),
                     "options": {"routes": 2}, "deadline": 30.0},
                    {"op": "stats"},
                ]
                replies = await request_over_tcp(host, port, frames)
                by_type = {r["type"]: r for r in replies}
                assert by_type["result"]["id"] == "w1"
                assert by_type["result"]["status"] == "sat"
                assert by_type["result"]["schedules"]
                assert by_type["stats"]["metrics"]["requests"]["admitted"] == 1
        run(body())

    def test_batch_over_the_wire(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                entries = [
                    {"id": f"m{i}",
                     "problem": problem_to_wire(family_problem([0, i]))}
                    for i in range(1, 4)
                ]
                replies = await request_over_tcp(
                    host, port, [{"op": "batch", "requests": entries}])
                assert sorted(r["id"] for r in replies) == ["m1", "m2", "m3"]
                assert all(r["type"] == "result" for r in replies)
        run(body())

    def test_retired_option_key_is_rejected(self):
        # The route probe always runs; a client still sending the old
        # switch must hear so instead of being silently ignored.
        with pytest.raises(ProtocolError, match="probe_routes"):
            options_from_wire({"probe_routes": False})

    def test_retired_dl_propagation_key_is_rejected(self):
        # The transitive difference-logic pass and its knob are gone; a
        # client still sending it must hear so.
        with pytest.raises(ProtocolError, match="dl_propagation"):
            options_from_wire({"dl_propagation": False})
        with pytest.raises(ProtocolError, match="unknown option keys"):
            request_from_wire({"id": "r", "options": {"dl_propagation": True},
                               "problem": problem_to_wire(
                                   family_problem([0]))})

    @pytest.mark.parametrize("size", [FRAME_LIMIT + 100, 5 * FRAME_LIMIT])
    def test_oversized_frame_gets_an_error_and_the_connection_lives(
            self, size):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                replies = await request_over_tcp(host, port, [
                    {"op": "stats", "pad": "x" * size},
                    {"op": "stats"},
                ], timeout=10.0)
                assert [r["type"] for r in replies] == ["error", "stats"]
                assert replies[0]["id"] is None
                assert str(FRAME_LIMIT) in replies[0]["error"]
        run(body())

    def test_malformed_frames_get_error_replies(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                replies = await request_over_tcp(host, port, [
                    {"op": "warp-core-breach"},
                    {"op": "solve", "id": "bad", "problem": {"nodes": 7}},
                ])
                assert all(r["type"] == "error" for r in replies)
                assert replies[1]["id"] == "bad" or replies[0]["id"] == "bad"
        run(body())

    @pytest.mark.parametrize("field,value", [
        ("deadline", "5"), ("deadline", [5]), ("deadline", {"s": 5}),
        ("deadline", float("nan")), ("deadline", float("inf")),
        ("deadline", True), ("deadline", 10 ** 400),
        ("options", {"routes": "2"}), ("options", {"max_conflicts": "9"}),
        ("options", {"routes": True}), ("options", {"stages": 2.5}),
        ("apps", "x"),
    ], ids=["deadline-str", "deadline-list", "deadline-object",
            "deadline-nan", "deadline-inf", "deadline-true",
            "deadline-huge", "routes-str", "max_conflicts-str",
            "routes-true", "stages-float", "apps-str"])
    def test_mistyped_solve_field_gets_an_error_and_the_connection_lives(
            self, field, value):
        frame = {"op": "solve", "id": "bad",
                 "problem": problem_to_wire(family_problem([0]))}
        if field == "apps":
            frame["problem"]["apps"] = value
        else:
            frame[field] = value

        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                replies = await request_over_tcp(
                    host, port, [frame, {"op": "stats"}], timeout=10.0)
                assert [r["type"] for r in replies] == ["error", "stats"]
                assert replies[0]["id"] == "bad"
                assert replies[1]["metrics"]["requests"]["admitted"] == 0
        run(body())

    @pytest.mark.parametrize("path,value,says", [
        (("nodes", "+"), ["A", "switch"], "duplicate node"),
        (("links", "+"), ["A", "B"], "duplicate link"),
        (("links", "+"), ["A", "Z"], "unknown node"),
        (("apps", 0, "stability", 0, 0), "-1", "non-negative"),
        (("apps", 0, "stability"), [], ">= 1 segment"),
        (("apps", 0, "name"), 7, "ControlApplication.name"),
        (("apps", 0, "frame_bytes"), "1500", "ControlApplication.frame_bytes"),
        (("apps", 0, "frame_bytes"), True, "ControlApplication.frame_bytes"),
        (("apps", 0, "frame_bytes"), 1.5, "ControlApplication.frame_bytes"),
        (("delays", "ld"), "-1", "DelayModel.ld"),
        (("delays", "sd"), "-3/4", "DelayModel.sd"),
        (("apps", 0, "frame_byte"), 1500, "an app must be an object with keys"),
        (("nodes", "+"), [7, "switch"], "not a string"),
        (("links", "+"), "AB", "2-element lists"),
    ], ids=["duplicate-node", "duplicate-link", "link-to-unknown-node",
            "negative-alpha", "empty-stability", "name-int",
            "frame_bytes-str", "frame_bytes-true", "frame_bytes-float",
            "ld-negative", "sd-negative", "unknown-app-key",
            "node-name-int", "link-row-str"])
    def test_malformed_problem_gets_an_error_and_the_connection_lives(
            self, path, value, says):
        # Decoding refuses each of these before admission: no solve is
        # queued, and the next frame on the connection is answered.
        wire = problem_to_wire(family_problem([0]))
        target = wire
        for key in path[:-1]:
            target = target[key]
        if path[-1] == "+":
            target.append(value)
        else:
            target[path[-1]] = value
        with pytest.raises(ProtocolError, match=re.escape(says)):
            problem_from_wire(wire)

        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                replies = await request_over_tcp(host, port, [
                    {"op": "solve", "id": "bad", "problem": wire},
                    {"op": "stats"},
                ], timeout=10.0)
                assert [r["type"] for r in replies] == ["error", "stats"]
                assert replies[0]["id"] == "bad"
                assert says in replies[0]["error"]
                assert replies[1]["metrics"]["requests"]["admitted"] == 0
        run(body())

    def test_deeply_nested_frame_gets_an_error(self):
        # Within the frame limit, but nested deeper than the JSON parser
        # recurses.
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"[" * (FRAME_LIMIT - 10) + b"\n"
                             + encode_frame({"op": "stats"}))
                replies = [json.loads(await asyncio.wait_for(
                    reader.readline(), 10.0)) for _ in range(2)]
                writer.close()
                await writer.wait_closed()
                assert [r["type"] for r in replies] == ["error", "stats"]
                assert "undecodable frame" in replies[0]["error"]
        run(body())

    def test_integer_too_long_to_parse_gets_an_error(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"op": "solve", "id": "big", "deadline": '
                             + b"1" * 5000 + b"}\n"
                             + encode_frame({"op": "stats"}))
                replies = [json.loads(await asyncio.wait_for(
                    reader.readline(), 10.0)) for _ in range(2)]
                writer.close()
                await writer.wait_closed()
                assert [r["type"] for r in replies] == ["error", "stats"]
                assert "undecodable frame" in replies[0]["error"]
        run(body())

    def test_zero_denominator_gets_an_error_and_the_connection_lives(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                bad = problem_to_wire(family_problem([0]))
                bad["apps"][0]["period"] = "1/0"
                # Parsed on the event loop: a value that takes seconds to
                # build would hold up every connection.
                huge = problem_to_wire(family_problem([0]))
                huge["apps"][0]["period"] = "1e3000000"
                replies = await request_over_tcp(host, port, [
                    {"op": "solve", "id": "bad", "problem": bad},
                    {"op": "solve", "id": "huge", "problem": huge},
                    {"op": "solve", "id": "good",
                     "problem": problem_to_wire(family_problem([0]))},
                ])
                by_id = {r["id"]: r for r in replies}
                assert by_id["bad"]["type"] == "error"
                assert "zero denominator" in by_id["bad"]["error"]
                assert by_id["huge"]["type"] == "error"
                assert by_id["good"]["type"] == "result"
        run(body())

    @pytest.mark.parametrize("value", ["1e3000000", "1.5", " 3/4 ",
                                       "1_000", "1/0", "0x10", 1.5, None])
    def test_only_str_fraction_rationals_are_accepted(self, value):
        wire = problem_to_wire(family_problem([0]))
        wire["delays"]["sd"] = value
        t0 = time.perf_counter()
        with pytest.raises(ProtocolError):
            problem_from_wire(wire)
        assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("value", ["3/4", "7", 7])
    def test_str_fraction_rationals_and_json_integers_parse(self, value):
        wire = problem_to_wire(family_problem([0]))
        wire["delays"]["sd"] = value
        assert problem_from_wire(wire).delays.sd == Fraction(value)

    def test_negative_rationals_parse(self):
        # Negative forwarding delays are refused by DelayModel (see
        # test_malformed_problem_gets_an_error_and_the_connection_lives);
        # the parser itself reads the sign.
        assert parse_rational("-3/4") == Fraction(-3, 4)

    def test_cancel_ack_over_the_wire(self):
        async def body():
            async with SynthesisServer(policy=INLINE) as server:
                host, port = await server.serve_tcp()
                replies = await request_over_tcp(
                    host, port, [{"op": "cancel", "id": "ghost"},
                                 {"op": "cancel", "id": ["ghost"]}])
                assert replies == [{"type": "ack", "op": "cancel",
                                    "id": "ghost", "found": False},
                                   {"type": "ack", "op": "cancel",
                                    "id": ["ghost"], "found": False}]
        run(body())
