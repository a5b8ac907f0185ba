"""Persistent solver workers behind the synthesis service.

A :class:`ServiceWorker` is a request/response loop over one persistent
:class:`~repro.runtime.process.WorkerProcess` — the same handle the
portfolio race runs one-shot, here *reused* across requests (hence the
duplex pipe) so repeated solves pay the fork/import cost once.  The
child answers each request through
:func:`~repro.runtime.harness.supervised_solve`, whose stop predicate
reads the request's deadline and a cancel flag.  The child clears the
flag when a request arrives and then sends a ``started`` frame;
cancellation is SIGUSR1, whose handler sets the flag, and the parent
holds the signal back until that frame is in, so a cancel reaches the
request it names however early it comes and never the next one.  The
stopped solve returns ``unknown`` and the payload is flagged
``cancelled``.

What this scheduler adds to the shared runtime (``docs/robustness.md``,
"Worker runtime") is how it waits: :meth:`ServiceWorker.solve` is
deliberately *blocking* (the asyncio server runs it in an executor
thread) on its single pipe, raising :class:`WorkerCrashed` when the
worker dies mid-request — for the server's retry loop — and
:class:`WorkerStalled`, after reaping it, when nothing came back by the
deadline plus grace or (with ``SupervisionPolicy.stall_timeout`` set)
the worker went silent for that long before the deadline.  Frames that
are neither this request's result nor a death go to ``on_heartbeat``,
whose validator quarantines what is not a heartbeat.

:class:`InlineWorker` implements the same interface with no subprocess
— the harness runs in the calling thread, and ``cancel()`` sets the
flag its predicate reads.  It exists for deterministic tests,
benchmarks, and sandboxes where forking is unavailable; injected
crashes (:class:`~repro.runtime.faults.InjectedCrash`) surface as
:class:`WorkerCrashed` so the supervision path is identical.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from typing import Callable, Dict, Optional

from ..runtime.faults import InjectedCrash
from ..runtime.frames import (KIND_REQUEST, KIND_RESULT, KIND_SHUTDOWN,
                              KIND_STARTED)
from ..runtime.harness import pipe_sink, supervised_solve
from ..runtime.knowledge import export_knowledge
from ..runtime.process import DIED, WorkerProcess
from ..runtime.supervision import SupervisionPolicy
from .protocol import schedules_to_wire

#: Pipe poll interval on the parent side (seconds).
_POLL = 0.05

#: Extra parent-side slack past a request deadline before a silent
#: worker is declared stalled and reaped: the child's stop predicate
#: is due at the deadline, but the engine only polls it before a
#: decision, so give the solve a moment to unwind and ship its payload.
_DEADLINE_SLACK = 1.5


class WorkerCrashed(RuntimeError):
    """The worker died (EOF/SIGKILL/injected crash) mid-request."""


class WorkerStalled(WorkerCrashed):
    """The worker was reaped for silence: no frame for the policy's
    ``stall_timeout`` mid-request, or — ``past_deadline`` — no answer by
    deadline + grace, when there is no time left to retry into."""

    def __init__(self, message: str, past_deadline: bool) -> None:
        super().__init__(message)
        self.past_deadline = past_deadline


# ---------------------------------------------------------------------------
# Shared solve core (child process and inline worker)
# ---------------------------------------------------------------------------


def _solve_request(problem, options, deadline: Optional[float],
                   was_cancelled: Callable[[], bool],
                   on_heartbeat: Optional[Callable[[dict], None]],
                   heartbeat_interval: float) -> Dict[str, object]:
    """Run one solve and build its result payload.

    ``deadline`` is relative seconds from now; ``was_cancelled`` reads
    the caller's cancel flag (set by the signal handler or by
    ``InlineWorker.cancel``).
    """
    abs_deadline = (time.perf_counter() + deadline
                    if deadline is not None else None)
    result, engine = supervised_solve(
        problem, options, "service", deadline=abs_deadline,
        cancelled=was_cancelled, heartbeat=on_heartbeat,
        heartbeat_interval=heartbeat_interval)
    cancelled = was_cancelled() and result.status == "unknown"
    deadline_exceeded = (not cancelled and result.status == "unknown"
                         and abs_deadline is not None
                         and time.perf_counter() >= abs_deadline)
    schedules = ()
    if result.solution is not None:
        schedules = schedules_to_wire(result.solution.schedules)
    return {
        "status": result.status,
        "cancelled": cancelled,
        "deadline_exceeded": deadline_exceeded,
        "synthesis_time": result.synthesis_time,
        "stages_completed": result.stages_completed,
        "statistics": dict(result.statistics),
        "schedules": schedules,
        "unsat_explanation": result.unsat_explanation,
        # Every verdict: the cache, unlike a race, outlives sat results.
        "knowledge": export_knowledge(options, engine, result.route_veto),
    }


# ---------------------------------------------------------------------------
# Child process
# ---------------------------------------------------------------------------

def service_worker_main(conn, heartbeat_interval: float) -> None:
    """Entry point of one persistent worker process."""
    # The server's heap inherited at fork stays out of every collection
    # the requests trigger.
    gc.freeze()
    # The cancel flag the solve's stop predicate reads: SIGUSR1 sets it,
    # a request's arrival clears it.
    cancelled = [False]

    def on_cancel(signum, frame) -> None:
        cancelled[0] = True

    signal.signal(signal.SIGUSR1, on_cancel)
    beat = pipe_sink(conn)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg.get("kind")
        if kind == KIND_SHUTDOWN:
            break
        if kind != KIND_REQUEST:
            continue
        # Whatever set the flag so far was aimed at an earlier request:
        # the parent signals this one only once the started frame is in.
        cancelled[0] = False
        beat({"kind": KIND_STARTED, "id": msg.get("id")})
        try:
            payload = _solve_request(
                msg["problem"], msg["options"], msg.get("deadline"),
                lambda: cancelled[0], beat, heartbeat_interval,
            )
        except InjectedCrash:
            # A non-harsh injected crash in a process worker still means
            # "this worker dies": exit uncleanly so the parent sees EOF
            # and runs the same retry path as a SIGKILL.
            os._exit(3)
        except Exception as exc:  # solver bug: answer, don't die
            payload = {"status": "error", "cancelled": False,
                       "deadline_exceeded": False,
                       "error": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send({"kind": KIND_RESULT, "id": msg.get("id"),
                       "payload": payload})
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Parent-side handles
# ---------------------------------------------------------------------------


class ServiceWorker:
    """Parent-side handle of one persistent solver process."""

    mode = "process"

    def __init__(self, policy: Optional[SupervisionPolicy] = None,
                 name: str = "w0") -> None:
        self.policy = policy or SupervisionPolicy()
        self.name = name
        self.restarts = 0
        self._worker = self._spawn()
        # Cancel bookkeeping, shared with the server's event-loop thread:
        # the request a cancel names, and the request whose started
        # frame is in and whose result is not.
        self._lock = threading.Lock()
        self._cancel_id: Optional[str] = None
        self._running_id: Optional[str] = None

    # -- lifecycle -------------------------------------------------------

    def _spawn(self) -> WorkerProcess:
        return WorkerProcess(
            service_worker_main, (self.policy.heartbeat_interval,),
            name=f"service-worker-{self.name}", duplex=True,
            kill_grace=self.policy.kill_grace)

    @property
    def alive(self) -> bool:
        return self._worker.alive

    @property
    def pid(self) -> Optional[int]:
        return self._worker.pid

    def restart(self) -> None:
        """Reap whatever is left and spawn a fresh process."""
        self._worker.reap()
        self._worker = self._spawn()
        self.restarts += 1

    def close(self) -> None:
        """Graceful shutdown: ask nicely, then reap."""
        self._worker.send({"kind": KIND_SHUTDOWN})
        self._worker.reap(linger=True)

    # -- requests --------------------------------------------------------

    def cancel(self, request_id: str) -> bool:
        """Stop ``request_id``'s solve: SIGUSR1 sets the child's cancel
        flag.  Until the child's started frame for it is in, the signal
        is held back and :meth:`solve` sends it on that frame."""
        with self._lock:
            self._cancel_id = request_id
            if self._running_id != request_id:
                return True
            return self._worker.signal(signal.SIGUSR1)

    def _started(self, request_id: str) -> None:
        with self._lock:
            self._running_id = request_id
            if self._cancel_id == request_id:
                self._worker.signal(signal.SIGUSR1)

    def _finished(self) -> None:
        with self._lock:
            self._running_id = self._cancel_id = None

    def solve(self, request_id: str, problem, options,
              deadline: Optional[float] = None,
              on_heartbeat: Optional[Callable[[dict], None]] = None,
              ) -> Dict[str, object]:
        """Dispatch one request and block for its payload.

        Raises :class:`WorkerCrashed` when the child died (pipe EOF)
        and :class:`WorkerStalled` — after reaping the child — when it
        sent nothing for ``policy.stall_timeout`` seconds while the
        deadline was still open, or nothing came back by the deadline
        plus grace; the caller owns retries.  Every frame that is not
        this request's result or started frame — heartbeat, garbage, a
        stale result — goes to ``on_heartbeat``.
        """
        try:
            return self._await_result(request_id, problem, options,
                                      deadline, on_heartbeat)
        finally:
            self._finished()

    def _await_result(self, request_id, problem, options, deadline,
                      on_heartbeat) -> Dict[str, object]:
        if not self._worker.send({"kind": KIND_REQUEST, "id": request_id,
                                  "problem": problem, "options": options,
                                  "deadline": deadline}):
            raise WorkerCrashed(f"worker {self.name} is not running")
        last_frame = time.perf_counter()
        due = last_frame + deadline if deadline is not None else None
        hard = (due + self.policy.kill_grace + _DEADLINE_SLACK
                if due is not None else None)
        stall_timeout = self.policy.stall_timeout
        while True:
            # Sampled before the read: whatever a dead child sent is
            # queued by now, so one more drain sees all of it even when
            # the EOF itself is held up (a sibling forked meanwhile may
            # still hold the child's pipe end).
            gone = not self._worker.alive
            for kind, frame in self._worker.drain(_POLL):
                if kind == KIND_RESULT and frame.get("id") == request_id:
                    return frame["payload"]
                if kind == KIND_STARTED and frame.get("id") == request_id:
                    self._started(request_id)
                    continue
                if kind == DIED:
                    gone = True
                    continue
                last_frame = time.perf_counter()
                if on_heartbeat is not None:
                    on_heartbeat(frame)
            if gone:
                raise WorkerCrashed(f"worker {self.name} died mid-request")
            now = time.perf_counter()
            if hard is not None and now >= hard:
                self._worker.reap()
                raise WorkerStalled(
                    f"worker {self.name} stalled past its deadline",
                    past_deadline=True)
            # Past the deadline the child is unwinding from its stop
            # predicate; ``hard`` bounds that, not the stall clock.
            if (stall_timeout is not None and (due is None or now < due)
                    and now - last_frame >= stall_timeout):
                self._worker.reap()
                raise WorkerStalled(
                    f"worker {self.name} sent nothing for "
                    f"{stall_timeout:g}s mid-request", past_deadline=False)


class InlineWorker:
    """In-process worker with the :class:`ServiceWorker` interface.

    Solves run in the calling thread (the server's executor), so
    ``cancel()`` sets the flag the solve's stop predicate reads — keyed
    to the request it names, so a cancel that comes before its solve
    starts still counts — and injected crashes surface as
    :class:`WorkerCrashed`: the same supervision story as the process
    worker, minus the fork.
    """

    mode = "inline"

    def __init__(self, policy: Optional[SupervisionPolicy] = None,
                 name: str = "w0") -> None:
        self.policy = policy or SupervisionPolicy()
        self.name = name
        self.restarts = 0
        self._cancel_id: Optional[str] = None

    @property
    def alive(self) -> bool:
        return True

    pid = None

    def restart(self) -> None:
        self.restarts += 1

    def close(self) -> None:
        pass

    def cancel(self, request_id: str) -> bool:
        self._cancel_id = request_id
        return True

    def solve(self, request_id: str, problem, options,
              deadline: Optional[float] = None,
              on_heartbeat: Optional[Callable[[dict], None]] = None,
              ) -> Dict[str, object]:
        try:
            return _solve_request(
                problem, options, deadline,
                lambda: self._cancel_id == request_id, on_heartbeat,
                self.policy.heartbeat_interval,
            )
        except InjectedCrash as exc:
            raise WorkerCrashed(f"worker {self.name}: injected crash "
                                f"({exc})") from exc
        finally:
            self._cancel_id = None
