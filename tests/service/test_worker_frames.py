"""Frames on the service pipe are validated, not trusted.

A worker streaming garbage (memory corruption, a foreign writer on the
pipe) used to raise ``AttributeError`` out of ``ServiceWorker.solve``:
the dispatcher answered ``dispatch failure`` and left the worker
mid-solve and un-restarted.  The shared ``WorkerProcess.drain()`` gives
the service the race's rule instead: quarantine, count, keep reading.
"""

import multiprocessing

from repro.runtime.frames import KIND_REQUEST, KIND_RESULT
from repro.runtime.supervision import SupervisionPolicy, Supervisor
from repro.service import (ServiceClient, ServicePolicy, ServiceWorker,
                           SynthesisServer)
from repro.service import workers

from .helpers import family_problem, run

FAST = SupervisionPolicy(heartbeat_interval=0.02, kill_grace=0.3)

PAYLOAD = {"status": "unknown", "cancelled": False,
           "deadline_exceeded": False}


def garbling_worker_main(conn, heartbeat_interval):
    """A fake child: three unusable frames, then a valid result."""
    while True:
        msg = conn.recv()
        if msg.get("kind") != KIND_REQUEST:
            break
        conn.send(object())
        conn.send([1, 2, 3])
        conn.send({"kind": "no-such-kind"})
        conn.send({"kind": KIND_RESULT, "id": msg["id"],
                   "payload": PAYLOAD})
    conn.close()


def test_solve_quarantines_garbage_and_returns_the_result(monkeypatch):
    monkeypatch.setattr(workers, "service_worker_main", garbling_worker_main)
    supervisor = Supervisor(FAST)
    worker = ServiceWorker(policy=FAST, name="garbled")
    try:
        payload = worker.solve(
            "r1", None, None,
            on_heartbeat=lambda f: supervisor.note_heartbeat("service", f))
        assert payload == PAYLOAD
        assert supervisor.statistics["quarantined_artifacts"] == 3
        assert supervisor.statistics["heartbeats_seen"] == 0
        # The worker was left in step with the protocol: it answers again.
        assert worker.solve("r2", None, None) == PAYLOAD
        assert worker.restarts == 0
    finally:
        worker.close()
    assert multiprocessing.active_children() == []


def test_server_counts_them_and_answers_the_request(monkeypatch):
    monkeypatch.setattr(workers, "service_worker_main", garbling_worker_main)

    async def body():
        policy = ServicePolicy(workers=1, worker_mode="process",
                               supervision=FAST)
        async with SynthesisServer(policy=policy) as server:
            reply = await ServiceClient(server).solve(
                family_problem([0, 1]), deadline=30.0, request_id="g")
            assert reply["type"] == "result", reply
            assert reply["status"] == "unknown"
            stats = server.stats()
            assert stats["supervision"]["quarantined_artifacts"] == 3
            assert stats["workers"][0]["restarts"] == 0
    run(body())
    assert multiprocessing.active_children() == []
