"""Neither zombies nor file descriptors — counted, not just claimed.

``docs/robustness.md`` promises that reaped workers leave nothing
behind; the fault suites only check ``active_children()``.  This test
counts the process's open descriptors around every way a worker ends.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import sharing_problem
from repro.portfolio import (FaultPlan, FaultSpec, Strategy,
                             SupervisionPolicy, synthesize_portfolio)
from repro.runtime.faults import CRASH
from repro.runtime.process import WorkerProcess
from repro.service import ServiceClient, ServicePolicy, SynthesisServer

from ..service.helpers import family_problem, run

FD_DIR = "/proc/self/fd"

FAST = SupervisionPolicy(heartbeat_interval=0.02, stall_timeout=0.6,
                         backoff_base=0.01, backoff_factor=2.0,
                         backoff_cap=0.05, kill_grace=0.2)


def open_fds() -> int:
    return len(os.listdir(FD_DIR))


def _exits(conn):
    conn.close()


def _ignores_sigterm(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("armed")
    while True:
        time.sleep(0.05)


def spawn_reap_cycles() -> list:
    """The reaped handles, still referenced: a descriptor that only the
    garbage collector would close counts as leaked."""
    reaped = []
    for cycle in range(20):
        stubborn = cycle == 7
        worker = WorkerProcess(_ignores_sigterm if stubborn else _exits,
                               name=f"leak-{cycle}", duplex=cycle % 2 == 0,
                               kill_grace=FAST.kill_grace)
        if stubborn:
            assert list(worker.drain(5.0))      # SIGTERM is ignored by now
        worker.reap(linger=cycle % 3 == 0)
        assert not worker.alive
        reaped.append(worker)
    return reaped


def chaos_race() -> None:
    strategies = [Strategy("monolithic", SynthesisOptions()),
                  Strategy("routes-1", SynthesisOptions(routes=1)),
                  Strategy("routes-2", SynthesisOptions(routes=2))]
    plan = FaultPlan.chaos(seed=7, strategy_names=[s.name for s in strategies],
                           crashes=1, hangs=1, corruptions=1, drops=1)
    result = synthesize_portfolio(sharing_problem(), strategies, timeout=60,
                                  supervision=FAST, fault_plan=plan)
    assert result.status == "sat"
    assert result.supervision_statistics["crash_retries"] >= 1


def sigkilled_service_request() -> None:
    async def body():
        plan = FaultPlan([FaultSpec(CRASH, strategy="victim", attempt=1)])
        policy = ServicePolicy(workers=1, worker_mode="process",
                               supervision=FAST)
        async with SynthesisServer(policy=policy, fault_plan=plan) as server:
            reply = await ServiceClient(server).solve(
                family_problem([0, 1]), deadline=60.0, request_id="victim")
            assert reply["type"] == "result" and reply["attempts"] == 2
            assert server.stats()["workers"][0]["restarts"] == 1
    run(body())


@pytest.mark.skipif(not os.path.isdir(FD_DIR),
                    reason="needs /proc/self/fd to count descriptors")
def test_every_way_a_worker_ends_gives_its_descriptors_back():
    before = open_fds()
    reaped = spawn_reap_cycles()
    assert open_fds() == before
    del reaped
    chaos_race()
    assert open_fds() == before
    sigkilled_service_request()
    assert open_fds() == before
    assert multiprocessing.active_children() == []
