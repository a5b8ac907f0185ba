"""Service chaos: crashes, cancellation, corrupt caches, drain.

These scenarios reuse the fault-injection harness of
:mod:`repro.runtime.faults` against the *service* stack: process
workers really get SIGKILLed mid-request and the supervision retry
still produces a valid response; cancellation releases the worker and
sets the flag the solve's stop predicate reads, however early it comes;
a corrupted cache directory never crashes
server startup; draining rejects new work while finishing in-flight
work; and no scenario leaks a worker process.
"""

import asyncio
import json
import multiprocessing
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import gm_case_study
from repro.portfolio import FaultPlan, FaultSpec, SupervisionPolicy
from repro.runtime.faults import CRASH, HANG
from repro.runtime.supervision import MAX_CRASH_RETRIES
from repro.service import (
    KnowledgeCache,
    ServiceClient,
    ServicePolicy,
    SynthesisRequest,
    SynthesisServer,
)
from repro.service.workers import InlineWorker

from .helpers import family_problem, run, slow_problem

#: Near-instant backoff so retries do not slow the suite down.
FAST = SupervisionPolicy(heartbeat_interval=0.02, backoff_base=0.01,
                         backoff_cap=0.05, kill_grace=0.3)

MODERATE_OPTS = SynthesisOptions(routes=2)


def assert_no_leaked_workers() -> None:
    for proc in multiprocessing.active_children():
        proc.join(timeout=2.0)
    assert multiprocessing.active_children() == []


class TestCrashSupervision:
    def test_sigkilled_worker_still_answers(self):
        async def body():
            # Harsh mode: the worker SIGKILLs itself inside core.solve.
            plan = FaultPlan([FaultSpec(CRASH, strategy="victim",
                                        attempt=1)])
            policy = ServicePolicy(workers=1, worker_mode="process",
                                   supervision=FAST)
            async with SynthesisServer(policy=policy,
                                       fault_plan=plan) as server:
                client = ServiceClient(server)
                reply = await client.solve(gm_case_study(3), MODERATE_OPTS,
                                           deadline=120.0,
                                           request_id="victim")
                assert reply["type"] == "result"
                assert reply["status"] == "sat"
                assert reply["attempts"] == 2
                sup = server.supervisor.statistics
                assert sup["crashes"] == 1
                assert sup["crash_retries"] == 1
                assert sup["crash_budget_exhausted"] == 0
            assert_no_leaked_workers()
        run(body())

    def test_stalled_worker_is_reaped_and_retried_before_the_deadline(self):
        async def body():
            # The worker hangs (sleeps forever, no heartbeats) at the
            # start of attempt 1.  With a stall timeout the service must
            # not wait out the 30 s deadline: reap, retry, answer.
            plan = FaultPlan([FaultSpec(HANG, strategy="sleeper",
                                        attempt=1)])
            policy = ServicePolicy(
                workers=1, worker_mode="process",
                supervision=replace(FAST, stall_timeout=0.3))
            async with SynthesisServer(policy=policy,
                                       fault_plan=plan) as server:
                client = ServiceClient(server)
                asked = time.perf_counter()
                reply = await client.solve(family_problem([0, 1]),
                                           deadline=30.0,
                                           request_id="sleeper")
                assert time.perf_counter() - asked < 5.0
                assert reply["type"] == "result"
                assert reply["status"] == "sat"
                assert reply["attempts"] == 2
                sup = server.supervisor.statistics
                assert sup["stalls_detected"] == 1
                assert sup["crashes"] == 0
                assert sup["crash_retries"] == 1
            assert_no_leaked_workers()
        run(body())

    def test_crash_budget_exhausts_to_error(self):
        async def body():
            # attempt=0: die on every attempt; the budget must exhaust.
            plan = FaultPlan([FaultSpec(CRASH, strategy="doomed",
                                        attempt=0)])
            policy = ServicePolicy(workers=1, worker_mode="process",
                                   supervision=FAST)
            async with SynthesisServer(policy=policy,
                                       fault_plan=plan) as server:
                client = ServiceClient(server)
                reply = await client.solve(family_problem([0, 1]),
                                           deadline=60.0,
                                           request_id="doomed")
                assert reply["type"] == "error"
                assert "retries exhausted" in reply["error"]
                sup = server.supervisor.statistics
                assert sup["crashes"] == MAX_CRASH_RETRIES + 1
                assert sup["crash_budget_exhausted"] == 1
                # The restarted worker is healthy for the next request.
                ok = await client.solve(family_problem([0, 1]))
                assert ok["type"] == "result" and ok["status"] == "sat"
            assert_no_leaked_workers()
        run(body())


class TestCancellation:
    def test_inline_cancel_sets_the_flag_the_solve_reads(self, monkeypatch):
        payloads = []
        original = InlineWorker.solve

        def spy(self, *args, **kwargs):
            payloads.append(original(self, *args, **kwargs))
            return payloads[-1]

        monkeypatch.setattr(InlineWorker, "solve", spy)

        async def body():
            policy = ServicePolicy(workers=1, worker_mode="inline")
            async with SynthesisServer(policy=policy) as server:
                client = ServiceClient(server)
                rid, future = await client.submit(slow_problem(),
                                                  deadline=120.0)
                await asyncio.sleep(1.0)
                assert await client.cancel(rid)
                reply = await asyncio.wait_for(future, 60.0)
                assert reply["type"] == "cancelled"
                # The solve itself saw the flag and stopped: its payload
                # says so, not just the server's bookkeeping.
                assert payloads[0]["cancelled"] is True
                # The worker is released: the next request solves fine.
                ok = await client.solve(family_problem([0, 1]))
                assert ok["type"] == "result" and ok["status"] == "sat"
        run(body())

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_a_cancel_sent_at_once_is_never_lost(self, mode):
        # Each cancel goes out the moment the dispatcher has taken the
        # request, racing the worker's start of the solve; none may be
        # dropped (the solve would then run for ~10 s).
        async def body():
            policy = ServicePolicy(workers=1, worker_mode=mode,
                                   supervision=FAST)
            async with SynthesisServer(policy=policy) as server:
                client = ServiceClient(server)
                for i in range(10):
                    rid, future = await client.submit(
                        slow_problem(), deadline=60.0,
                        request_id=f"early-{i}")
                    while server.stats()["inflight"] < 1:
                        await asyncio.sleep(0)
                    assert await client.cancel(rid)
                    reply = await asyncio.wait_for(future, 2.0)
                    assert reply["type"] == "cancelled", reply
                ok = await client.solve(family_problem([0, 1]),
                                        deadline=60.0)
                assert ok["type"] == "result" and ok["status"] == "sat"
            assert_no_leaked_workers()
        run(body())

    def test_process_cancel_mid_solve(self):
        async def body():
            policy = ServicePolicy(workers=1, worker_mode="process",
                                   supervision=FAST)
            async with SynthesisServer(policy=policy) as server:
                client = ServiceClient(server)
                rid, future = await client.submit(slow_problem(),
                                                  deadline=120.0)
                await asyncio.sleep(1.5)
                assert await client.cancel(rid)
                reply = await asyncio.wait_for(future, 60.0)
                assert reply["type"] == "cancelled"
                assert server.counters["cancelled"] == 1
                # Same (still-alive) worker takes the next request.
                worker = server.stats()["workers"][0]
                assert worker["alive"] and worker["restarts"] == 0
                ok = await client.solve(family_problem([0, 1]),
                                        deadline=60.0)
                assert ok["type"] == "result" and ok["status"] == "sat"
            assert_no_leaked_workers()
        run(body())

    def test_cancel_while_queued_answers_immediately(self):
        async def body():
            policy = ServicePolicy(workers=1, worker_mode="inline")
            async with SynthesisServer(policy=policy) as server:
                blocker = await server.submit(SynthesisRequest(
                    id="blocker", problem=gm_case_study(3),
                    options=MODERATE_OPTS))
                await asyncio.sleep(0.1)
                queued = await server.submit(SynthesisRequest(
                    id="queued", problem=family_problem([0])))
                assert await server.cancel("queued")
                reply = await asyncio.wait_for(queued, 1.0)
                assert reply["type"] == "cancelled"
                assert reply["cancelled_in"] == "queue"
                assert (await blocker)["type"] == "result"
        run(body())


class TestCorruptCache:
    def test_server_startup_survives_garbage_cache(self, tmp_path):
        for name, blob in [("nonsense.json", b"][{ garbage"),
                           ("f" * 32 + ".json", b'{"version": 40000}')]:
            (Path(tmp_path) / name).write_bytes(blob)

        async def body():
            cache = KnowledgeCache(tmp_path)     # quarantine, not crash
            policy = ServicePolicy(workers=1, worker_mode="inline")
            async with SynthesisServer(policy=policy, cache=cache) as server:
                client = ServiceClient(server)
                reply = await client.solve(family_problem([0, 1]))
                assert reply["type"] == "result"
                stats = client.stats()
                assert stats["cache"]["quarantined_entries"] == 2
                assert stats["cache"]["entries"] == 1   # the fresh store
            quarantined = list(Path(tmp_path).glob("*.quarantined"))
            assert len(quarantined) == 2
        run(body())

    def test_quarantined_entry_never_seeds(self, tmp_path):
        async def body():
            cache = KnowledgeCache(tmp_path)
            policy = ServicePolicy(workers=1, worker_mode="inline")
            async with SynthesisServer(policy=policy, cache=cache) as server:
                client = ServiceClient(server)
                problem = family_problem([0, 1])
                await client.solve(problem)
            # Corrupt the stored entry on disk, then restart the server.
            entry_file = next(Path(tmp_path).glob("*.json"))
            payload = json.loads(entry_file.read_text())
            payload["clauses"] = [["not-a-literal"]]
            entry_file.write_text(json.dumps(payload))
            cache2 = KnowledgeCache(tmp_path)
            async with SynthesisServer(
                    policy=ServicePolicy(workers=1, worker_mode="inline"),
                    cache=cache2) as server:
                client = ServiceClient(server)
                reply = await client.solve(family_problem([0, 1]))
                assert reply["type"] == "result"
                assert reply["cache"]["hit"] is None
                assert cache2.counters["quarantined_entries"] == 1
        run(body())


class TestDrain:
    def test_drain_rejects_new_and_finishes_inflight(self):
        async def body():
            policy = ServicePolicy(workers=1, worker_mode="inline")
            async with SynthesisServer(policy=policy) as server:
                client = ServiceClient(server)
                inflight = await server.submit(SynthesisRequest(
                    id="inflight", problem=gm_case_study(3),
                    options=MODERATE_OPTS))
                await asyncio.sleep(0.1)
                drain_task = asyncio.ensure_future(server.drain())
                await asyncio.sleep(0)
                late = await server.submit(SynthesisRequest(
                    id="late", problem=family_problem([0])))
                late_reply = await late
                assert late_reply["type"] == "rejected"
                assert late_reply["reason"] == "draining"
                reply = await inflight
                assert reply["type"] == "result"
                assert reply["status"] == "sat"
                await drain_task
                assert server.stats()["queue_depth"] == 0
        run(body())

    def test_shutdown_reaps_every_worker(self):
        async def body():
            policy = ServicePolicy(workers=2, worker_mode="process",
                                   supervision=FAST)
            server = SynthesisServer(policy=policy)
            await server.start()
            client = ServiceClient(server)
            replies = await client.solve_batch([
                SynthesisRequest(id=f"s{i}",
                                 problem=family_problem([0, i]))
                for i in range(1, 4)
            ])
            assert all(r["type"] == "result" for r in replies)
            await server.shutdown()
            assert_no_leaked_workers()
        run(body())
