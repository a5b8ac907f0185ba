"""`WorkerProcess`: classified drain, death detection, escalating reap."""

import multiprocessing
import signal
import time

from repro.runtime.frames import KIND_ARTIFACT, KIND_HEARTBEAT, KIND_RESULT
from repro.runtime.process import DIED, GARBAGE, WorkerProcess, wait_ready

GRACE = 0.3


def spawn(target, *args, duplex=False):
    return WorkerProcess(target, args, name="runtime-test", duplex=duplex,
                         kill_grace=GRACE)


def drained(worker, timeout=5.0):
    """Everything the child sends up to (and including) its death."""
    seen = []
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        seen.extend(worker.drain(0.05))
        if seen and seen[-1][0] == DIED:
            break
    return seen


def assert_no_children():
    assert multiprocessing.active_children() == []


# -- children (module level: picklable under any start method) --------------


def _ignores_sigterm(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send({"kind": KIND_HEARTBEAT})
    while True:
        time.sleep(0.05)


def _exits_without_result(conn, code):
    conn.send({"kind": KIND_HEARTBEAT})
    conn.close()
    raise SystemExit(code)


def _sends_every_shape(conn):
    for frame in ({"kind": KIND_HEARTBEAT}, {"kind": KIND_ARTIFACT},
                  object(), [1, 2], {"kind": "request"}, {"no": "kind"},
                  {"kind": KIND_RESULT, "payload": 7}):
        conn.send(frame)
    conn.close()


def _echo(conn):
    conn.send({"kind": KIND_RESULT, "payload": conn.recv()})
    conn.close()


def _sleeps(conn, seconds):
    time.sleep(seconds)
    conn.send({"kind": KIND_RESULT, "payload": seconds})
    conn.close()


# -- tests ------------------------------------------------------------------


class TestReap:
    def test_sigterm_ignoring_child_is_killed_within_the_grace(self):
        worker = spawn(_ignores_sigterm)
        # The heartbeat proves the handler is installed before we reap.
        assert next(iter(worker.drain(5.0)))[0] == KIND_HEARTBEAT
        t0 = time.perf_counter()
        worker.reap()
        elapsed = time.perf_counter() - t0
        assert GRACE <= elapsed < GRACE + 2.0
        assert not worker.alive
        assert_no_children()

    def test_reap_is_idempotent(self):
        worker = spawn(_ignores_sigterm)
        worker.reap()
        t0 = time.perf_counter()
        worker.reap()
        worker.reap(linger=True)
        assert time.perf_counter() - t0 < GRACE
        assert not worker.alive
        assert not worker.send({"kind": "shutdown"})
        assert list(worker.drain()) == [(DIED, None)]
        assert not worker.signal(signal.SIGUSR1)

    def test_linger_lets_a_finishing_child_exit_by_itself(self):
        worker = spawn(_sleeps, 0.05)
        assert drained(worker)[0] == (KIND_RESULT,
                                      {"kind": KIND_RESULT, "payload": 0.05})
        worker.reap(linger=True)
        assert not worker.alive
        assert_no_children()


class TestDrain:
    def test_eof_is_a_death_whatever_the_exit_code(self):
        # Exit code 0 is the dropped-result case: a clean exit that
        # never reported is still a death.
        for code in (0, 3):
            worker = spawn(_exits_without_result, code)
            kinds = [kind for kind, _ in drained(worker)]
            assert kinds == [KIND_HEARTBEAT, DIED], (code, kinds)
            worker.reap()
        assert_no_children()

    def test_frames_arrive_classified_and_garbage_does_not_stop_them(self):
        worker = spawn(_sends_every_shape)
        frames = drained(worker)
        assert [kind for kind, _ in frames] == [
            KIND_HEARTBEAT, KIND_ARTIFACT, GARBAGE, GARBAGE, GARBAGE,
            GARBAGE, KIND_RESULT, DIED]
        assert frames[-2][1]["payload"] == 7
        worker.reap()

    def test_drain_returns_at_once_when_nothing_is_queued(self):
        worker = spawn(_sleeps, 5.0)
        t0 = time.perf_counter()
        assert list(worker.drain()) == []
        assert time.perf_counter() - t0 < 0.5
        worker.reap()
        assert_no_children()

    def test_duplex_worker_answers_what_it_was_sent(self):
        worker = spawn(_echo, duplex=True)
        assert worker.send({"kind": "request", "id": "r1"})
        kind, frame = drained(worker)[0]
        assert kind == KIND_RESULT
        assert frame["payload"] == {"kind": "request", "id": "r1"}
        worker.reap(linger=True)
        assert_no_children()


class TestWaitReady:
    def test_only_workers_with_something_to_drain_are_returned(self):
        quiet = spawn(_sleeps, 5.0)
        loud = spawn(_sleeps, 0.0)
        try:
            ready = []
            deadline = time.perf_counter() + 5.0
            while not ready and time.perf_counter() < deadline:
                ready = wait_ready([quiet, loud], 0.1)
            assert ready == [loud]
        finally:
            quiet.reap()
            loud.reap()
        assert_no_children()

    def test_no_workers_just_sleeps(self):
        t0 = time.perf_counter()
        assert wait_ready([], 0.05) == []
        assert time.perf_counter() - t0 >= 0.04
