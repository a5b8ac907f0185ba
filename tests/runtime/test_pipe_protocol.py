"""The workers' real frame sequences obey ``PIPE_PROTOCOL``.

``runtime/frames.py`` writes down what a sender may put on one pipe:
heartbeats and artifacts stream before the result, never after it;
exactly one result per exchange; nothing after shutdown or close.  The
parent's readers rely on it — ``WorkerProcess.drain()`` readers stop at
the result, so a frame behind it is never read and a second result
answers nothing.  Here the two child entry points run in-process on a
recording pipe end, the service's parent handle runs on a recording
worker, and every send they make is folded through the table.
"""

import gc
import pickle
import signal

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import bottleneck_problem, gm_case_study
from repro.portfolio.engine import _strategy_worker
from repro.portfolio.strategies import Strategy
from repro.runtime.frames import (KIND_ARTIFACT, KIND_REQUEST, KIND_RESULT,
                                  KIND_SHUTDOWN, PIPE_PROTOCOL,
                                  PROTOCOL_CLOSED, PROTOCOL_START)
from repro.runtime.supervision import SupervisionPolicy
from repro.service.workers import ServiceWorker, service_worker_main

#: Beat at every restart boundary: as many streamed frames as a solve has.
EAGER = SupervisionPolicy(heartbeat_interval=0.0)


class RecordingConnection:
    """A child's pipe end: plays ``script`` back to ``recv()`` (EOF once it
    runs out) and logs every send, recv and close in order.  Frames are
    pickled as a real pipe would, so an unpicklable one fails here too.
    The first send of ``broken_kind`` raises ``BrokenPipeError`` instead,
    as a pipe whose parent is gone does."""

    def __init__(self, script=(), broken_kind=None):
        self.script = list(script)
        self.broken_kind = broken_kind
        self.log = []

    def send(self, frame):
        pickle.dumps(frame)
        if frame["kind"] == self.broken_kind:
            self.broken_kind = None
            raise BrokenPipeError("parent went away")
        self.log.append(("send", frame["kind"]))

    def recv(self):
        if not self.script:
            raise EOFError
        self.log.append(("recv", None))
        return self.script.pop(0)

    def close(self):
        self.log.append(("close", None))


class RecordingWorker:
    """The parent's view of a child that answers every request at once:
    ``drain()`` receives one result per request sent so far, and the log
    has the same shape as :class:`RecordingConnection`'s."""

    alive = True

    def __init__(self):
        self.unanswered = []
        self.log = []

    def send(self, frame):
        pickle.dumps(frame)
        self.log.append(("send", frame["kind"]))
        if frame["kind"] == KIND_REQUEST:
            self.unanswered.append(frame["id"])
        return True

    def drain(self, timeout=0.0):
        while self.unanswered:
            self.log.append(("recv", None))
            yield KIND_RESULT, {"kind": KIND_RESULT,
                                "id": self.unanswered.pop(0),
                                "payload": {"status": "unknown"}}

    def reap(self, linger=False):
        self.log.append(("close", None))


def assert_follows_protocol(log):
    """Fold ``log`` through ``PIPE_PROTOCOL``: a recv starts a fresh
    exchange, close ends the pipe."""
    state = PROTOCOL_START
    for step, (event, kind) in enumerate(log):
        if event == "recv":
            assert state != PROTOCOL_CLOSED, f"recv after close: {log}"
            state = PROTOCOL_START
        elif event == "close":
            state = PROTOCOL_CLOSED
        else:
            legal_from, state_after = PIPE_PROTOCOL[kind]
            assert state in legal_from, \
                f"step {step}: {kind!r} sent in state {state!r}: {log}"
            state = state_after
    assert state == PROTOCOL_CLOSED, f"pipe left open: {log}"


def sent_kinds(log):
    return [kind for event, kind in log if event == "send"]


def run_strategy_worker(problem, strategy, conn):
    try:
        _strategy_worker(conn, problem, strategy, share=True, policy=EAGER)
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("problem, options, streams", [
    # sat, staged: an incremental strategy exports nothing.
    (lambda: gm_case_study(2), SynthesisOptions(routes=2, stages=2), False),
    # unsat: learned clauses and the route veto after the verdict.
    (lambda: bottleneck_problem(3), SynthesisOptions(routes=1), True),
    # Not a problem at all: the solve raises inside the worker.
    (object, SynthesisOptions(routes=2), False),
], ids=["sat-staged", "unsat", "error"])
def test_a_strategy_worker_streams_then_reports_once(problem, options,
                                                     streams):
    conn = RecordingConnection()
    run_strategy_worker(problem(), Strategy("entrant", options), conn)
    assert_follows_protocol(conn.log)
    kinds = sent_kinds(conn.log)
    assert kinds.count(KIND_RESULT) == 1
    assert (KIND_ARTIFACT in kinds) == streams


def test_a_result_send_that_breaks_is_followed_by_one_error_result():
    # The first result never left (the send raised), so the error result
    # is the exchange's only one.
    conn = RecordingConnection(broken_kind=KIND_RESULT)
    strategy = Strategy("routes-2", SynthesisOptions(routes=2))
    run_strategy_worker(bottleneck_problem(2), strategy, conn)
    assert_follows_protocol(conn.log)
    assert sent_kinds(conn.log).count(KIND_RESULT) == 1


def test_a_service_worker_answers_each_request_once():
    def request(request_id):
        return {"kind": KIND_REQUEST, "id": request_id,
                "problem": bottleneck_problem(2),
                "options": SynthesisOptions(routes=2), "deadline": None}
    conn = RecordingConnection(
        [request("r1"), request("r2"), {"kind": KIND_SHUTDOWN}])
    handler = signal.getsignal(signal.SIGUSR1)
    try:
        service_worker_main(conn, heartbeat_interval=0.0)
    finally:
        gc.unfreeze()
        signal.signal(signal.SIGUSR1, handler)
    assert_follows_protocol(conn.log)
    assert sent_kinds(conn.log).count(KIND_RESULT) == 2


def test_the_service_parent_sends_one_request_per_answer(monkeypatch):
    monkeypatch.setattr(ServiceWorker, "_spawn", lambda self: RecordingWorker())
    worker = ServiceWorker(name="recorded")
    options = SynthesisOptions(routes=2)
    for request_id in ("r1", "r2"):
        assert worker.solve(request_id, None, options) == {"status": "unknown"}
    worker.close()
    assert_follows_protocol(worker._worker.log)
    assert sent_kinds(worker._worker.log) == [
        KIND_REQUEST, KIND_REQUEST, KIND_SHUTDOWN]
