"""The asyncio synthesis server: admission, dispatch, write-back.

One :class:`SynthesisServer` owns a bounded request queue, a fixed pool
of persistent workers (process or inline — see
:mod:`repro.service.workers`), and optionally a
:class:`~repro.service.cache.KnowledgeCache`.  The life of a request:

1. **Admission** (:meth:`SynthesisServer.submit`): draining servers
   reject (``rejected``), full queues shed (``overloaded``), duplicate
   ids reject; otherwise the relative deadline becomes an absolute
   monotonic one *now*, so queue wait counts against it.
2. **Dispatch**: one dispatcher coroutine per worker pulls from the
   queue.  Requests that waited out their whole budget answer
   ``timeout`` without touching a worker; cancelled-in-queue requests
   were already answered.  The cache is consulted by the request's
   fingerprint.  A hit on a ``sat`` entry that holds a schedule is
   answered right here, once
   :func:`~repro.core.validator.collect_violations` has certified that
   schedule against the request's problem and mode (``attempts: 0``,
   zero work); one that does not certify is quarantined and the request
   solves as a miss.  Any other hit's entry knowledge rides in on
   ``SynthesisOptions.seed_knowledge``.
3. **Solve** (executor thread, blocking): the worker solves under the
   request deadline.  Worker death is supervised — crashes, and stalls
   detected while the deadline is still open
   (``SupervisionPolicy.stall_timeout``), are retried by the one retry
   rule, :meth:`~repro.runtime.supervision.Supervisor.attempt_died`
   (capped backoff, budgets exhaust to ``error``); a worker silent
   through deadline plus grace is reaped and answered ``timeout`` — and
   every event lands in that supervisor's counters.
4. **Write-back**: completed ``sat``/``unsat`` solves store their
   exported knowledge, and a ``sat`` its schedule, back into the cache
   (LRU insert, atomic file).  A hit's entry already is this problem's
   knowledge and is kept, unless the solve found a ``sat`` the entry
   holds no schedule for: then the fresh entry replaces it.
5. **Response**: exactly one typed frame per admitted request.

Metrics (:meth:`SynthesisServer.stats`) aggregate queue wait / solve
wall percentiles, response-type counts, cache hit/miss counters,
warm-start conflict savings, and supervision events; the bench harness
folds them into its roll-ups.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import AsyncIterator, Dict, List, Optional, Tuple

from ..core.solution import Solution
from ..core.synthesizer import MODE_STABILITY, WORK_COUNTERS
from ..core.validator import collect_violations
from ..fieldcheck import check_fields
from ..runtime.supervision import SupervisionPolicy, Supervisor
from . import fingerprint as fp
from .cache import CacheEntry, KnowledgeCache
from .protocol import (ProtocolError, SynthesisRequest, decode_frame,
                       encode_frame, request_from_wire, schedules_from_wire,
                       schedules_to_wire)
from .workers import (InlineWorker, ServiceWorker, WorkerCrashed,
                      WorkerStalled)

#: Bounded history used for latency percentiles.
_LATENCY_WINDOW = 4096

#: Longest request frame (bytes, newline included) the TCP endpoint
#: reads; asyncio's default stream limit.  A longer line is skipped
#: through its newline and answered with one error frame.
FRAME_LIMIT = 2 ** 16

#: Supervision ledger key for service workers (one shared strategy
#: label: workers are interchangeable, unlike race strategies).
_STRATEGY = "service"


@dataclass(frozen=True)
class ServicePolicy:
    """Admission-control and supervision knobs of one server
    (``ValueError`` on a field its annotation and bound refuse)."""

    workers: int = field(default=2, metadata={"ge": 1})  # == max in-flight
    max_queue: int = field(default=16, metadata={"ge": 1})  # not yet dispatched
    worker_mode: str = field(default="process", metadata={"in": ("process", "inline")})
    default_deadline: Optional[float] = field(default=None, metadata={"gt": 0})  # None: unbounded
    supervision: SupervisionPolicy = field(default_factory=SupervisionPolicy)

    def __post_init__(self) -> None:
        check_fields(self)


class _Pending:
    """One admitted request's in-server state."""

    __slots__ = ("request", "future", "admitted", "abs_deadline",
                 "cancel_requested", "worker", "started")

    def __init__(self, request: SynthesisRequest, future: asyncio.Future,
                 admitted: float, abs_deadline: Optional[float]) -> None:
        self.request = request
        self.future = future
        self.admitted = admitted
        self.abs_deadline = abs_deadline
        self.cancel_requested = False
        self.worker = None
        self.started = False


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


class SynthesisServer:
    """Accepts synthesis requests, dispatches onto persistent workers."""

    def __init__(self, policy: Optional[ServicePolicy] = None,
                 cache: Optional[KnowledgeCache] = None,
                 fault_plan=None) -> None:
        self.policy = policy or ServicePolicy()
        self.cache = cache
        #: A :class:`repro.runtime.faults.FaultPlan` keyed by request
        #: id and attempt number — the service reuses the race's
        #: fault-injection harness verbatim for chaos tests.
        self.fault_plan = fault_plan
        self.supervisor = Supervisor(self.policy.supervision)
        self._queue: Optional[asyncio.Queue] = None
        self._workers: List = []
        self._dispatchers: List[asyncio.Task] = []
        self._pending: Dict[str, _Pending] = {}
        self._inflight = 0
        self._draining = False
        self._started = False
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._seq = 0
        self.counters: Dict[str, int] = {
            "admitted": 0, "completed": 0, "overloaded": 0, "rejected": 0,
            "queue_expired": 0, "cancelled_in_queue": 0,
            "result": 0, "timeout": 0, "cancelled": 0, "error": 0,
            "cache_seeded": 0, "cache_served": 0,
            "warm_start_conflict_savings": 0,
        }
        self._queue_waits: List[float] = []
        self._solve_walls: List[float] = []
        self._totals: List[float] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "SynthesisServer":
        if self._started:
            return self
        self._queue = asyncio.Queue()
        worker_cls = (ServiceWorker if self.policy.worker_mode == "process"
                      else InlineWorker)
        for i in range(self.policy.workers):
            worker = worker_cls(policy=self.policy.supervision, name=f"w{i}")
            self._workers.append(worker)
            self._dispatchers.append(
                asyncio.ensure_future(self._dispatch(worker)))
        self._started = True
        return self

    async def __aenter__(self) -> "SynthesisServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def drain(self) -> Dict[str, int]:
        """Stop admitting; finish everything already accepted."""
        self._draining = True
        if self._queue is not None:
            await self._queue.join()
        while self._inflight:
            await asyncio.sleep(0.01)
        return dict(self.counters)

    async def shutdown(self) -> Dict[str, int]:
        """Drain, stop dispatchers, reap workers, close the TCP server."""
        summary = await self.drain()
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for _ in self._dispatchers:
            self._queue.put_nowait(None)
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers.clear()
        loop = asyncio.get_event_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.close)
        self._workers.clear()
        self._started = False
        return summary

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _resolved(self, frame: dict) -> asyncio.Future:
        fut = asyncio.get_event_loop().create_future()
        fut.set_result(frame)
        return fut

    async def submit(self, request: SynthesisRequest) -> asyncio.Future:
        """Admit one request; the future resolves to its response frame."""
        if not self._started:
            await self.start()
        if self._draining:
            self.counters["rejected"] += 1
            return self._resolved({"type": "rejected", "id": request.id,
                                   "reason": "draining"})
        if request.id in self._pending:
            self.counters["rejected"] += 1
            return self._resolved({"type": "rejected", "id": request.id,
                                   "reason": "duplicate-id"})
        if self._queue.qsize() >= self.policy.max_queue:
            self.counters["overloaded"] += 1
            return self._resolved({"type": "overloaded", "id": request.id,
                                   "queue_depth": self._queue.qsize(),
                                   "max_queue": self.policy.max_queue})
        now = time.perf_counter()
        deadline = request.deadline
        if deadline is None:
            deadline = self.policy.default_deadline
        pending = _Pending(
            request, asyncio.get_event_loop().create_future(), now,
            now + deadline if deadline is not None else None)
        self._pending[request.id] = pending
        self.counters["admitted"] += 1
        self._queue.put_nowait(pending)
        return pending.future

    async def submit_batch(
            self, requests: List[SynthesisRequest]) -> List[asyncio.Future]:
        return [await self.submit(request) for request in requests]

    async def cancel(self, request_id: str) -> bool:
        """Cancel a queued or in-flight request (one response either way)."""
        pending = self._pending.get(request_id)
        if pending is None:
            return False
        pending.cancel_requested = True
        if pending.started:
            if pending.worker is not None:
                pending.worker.cancel(request_id)
            return True
        # Still queued: answer now; the dispatcher skips the husk.
        self.counters["cancelled_in_queue"] += 1
        self._respond(pending, {
            "type": "cancelled", "id": request_id,
            "queue_wait": time.perf_counter() - pending.admitted,
            "cancelled_in": "queue",
        })
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, worker) -> None:
        while True:
            pending = await self._queue.get()
            if pending is None:
                self._queue.task_done()
                break
            self._inflight += 1
            try:
                await self._handle(worker, pending)
            except Exception as exc:  # dispatcher must never die
                self._respond(pending, {
                    "type": "error", "id": pending.request.id,
                    "error": f"dispatch failure: "
                             f"{type(exc).__name__}: {exc}",
                })
            finally:
                self._inflight -= 1
                self._queue.task_done()

    async def _handle(self, worker, pending: _Pending) -> None:
        request = pending.request
        now = time.perf_counter()
        queue_wait = now - pending.admitted
        if pending.future.done():            # cancelled while queued
            self._pending.pop(request.id, None)
            return
        if pending.abs_deadline is not None and now >= pending.abs_deadline:
            self.counters["queue_expired"] += 1
            self._respond(pending, {
                "type": "timeout", "id": request.id,
                "queue_wait": queue_wait, "solve_wall": 0.0,
                "expired_in": "queue",
            })
            return

        hit: Optional[CacheEntry] = None
        fingerprint: Optional[str] = None
        opts = request.options
        if self.cache is not None:
            # Hashed once: the write-back files the result under it too.
            fingerprint = fp.problem_fingerprint(request.problem, opts)
            hit = self.cache.lookup(fingerprint)
            if hit is not None and hit.schedules is not None:
                response = self._serve(request, hit)
                if response is not None:
                    self.counters["cache_served"] += 1
                    self._finish(pending, response, queue_wait,
                                 time.perf_counter() - now, attempts=0)
                    return
                hit = None      # quarantined: solve as a miss
            if hit is not None:
                opts = replace(opts, seed_knowledge=(hit.knowledge,))
                self.counters["cache_seeded"] += 1

        pending.worker = worker
        pending.started = True
        loop = asyncio.get_event_loop()
        payload, attempts = await loop.run_in_executor(
            None, self._solve_blocking, worker, pending, opts)
        solve_wall = time.perf_counter() - now
        response = self._classify(pending, payload, hit)
        self._write_back(request, fingerprint, payload, response, hit)
        self._finish(pending, response, queue_wait, solve_wall, attempts)

    def _serve(self, request: SynthesisRequest,
               entry: CacheEntry) -> Optional[dict]:
        """The ``result`` frame a ``sat`` hit's stored schedule
        answers, or None — and the entry quarantined — when that
        schedule does not parse or does not certify for this request."""
        mode = request.options.mode
        try:
            schedules = schedules_from_wire(entry.schedules)
        except ProtocolError:
            schedules = None
        if schedules is None or collect_violations(
                Solution(request.problem, schedules, mode=mode),
                check_stability=(mode == MODE_STABILITY)):
            self.cache.quarantine(entry.fingerprint)
            return None
        return {
            "type": "result", "id": request.id, "status": "sat",
            "schedules": schedules_to_wire(schedules),
            "statistics": dict.fromkeys(WORK_COUNTERS, 0),
            "stages_completed": 0, "unsat_explanation": None,
            "cache": {"hit": "exact"},
        }

    def _finish(self, pending: _Pending, response: dict, queue_wait: float,
                solve_wall: float, attempts: int) -> None:
        """Stamp the envelope, record the latencies, respond."""
        response.update(queue_wait=queue_wait, solve_wall=solve_wall,
                        attempts=attempts)
        self._queue_waits.append(queue_wait)
        self._solve_walls.append(solve_wall)
        self._totals.append(queue_wait + solve_wall)
        del self._queue_waits[:-_LATENCY_WINDOW]
        del self._solve_walls[:-_LATENCY_WINDOW]
        del self._totals[:-_LATENCY_WINDOW]
        self._respond(pending, response)

    def _solve_blocking(self, worker, pending: _Pending,
                        opts) -> Tuple[dict, int]:
        """Supervised blocking solve (runs in an executor thread)."""
        request = pending.request
        attempt = 1
        while True:
            attempt_opts = opts
            if self.fault_plan is not None:
                faults = self.fault_plan.for_attempt(
                    request.id, attempt, harsh=(worker.mode == "process"))
                if faults is not None:
                    attempt_opts = replace(opts, faults=faults)
            if attempt > 1 and attempt_opts.faults is not None \
                    and self.fault_plan is None:
                # Request-carried faults are a one-shot injection.
                attempt_opts = replace(attempt_opts, faults=None)
            remaining = None
            if pending.abs_deadline is not None:
                remaining = pending.abs_deadline - time.perf_counter()
                if remaining <= 0:
                    return ({"status": "unknown", "cancelled": False,
                             "deadline_exceeded": True}, attempt)
            try:
                payload = worker.solve(
                    request.id, request.problem, attempt_opts,
                    deadline=remaining, on_heartbeat=self._note_heartbeat)
                return payload, attempt
            except WorkerCrashed as exc:
                worker.restart()
                stalled = isinstance(exc, WorkerStalled)
                note = (self.supervisor.note_stall if stalled
                        else self.supervisor.note_crash)
                if stalled and exc.past_deadline:
                    # Silent through deadline + grace: the request's
                    # time is up, there is nothing left to retry into.
                    note(_STRATEGY)
                    return ({"status": "unknown",
                             "cancelled": pending.cancel_requested,
                             "deadline_exceeded": True}, attempt)
                if pending.cancel_requested:
                    note(_STRATEGY)
                    return ({"status": "unknown", "cancelled": True,
                             "deadline_exceeded": False}, attempt)
                # A crash, or a stall with the deadline still open: the
                # one retry rule decides.
                delay = self.supervisor.attempt_died(
                    _STRATEGY, attempt - 1, stalled=stalled)
                if delay is None:
                    return ({"status": "error", "cancelled": False,
                             "deadline_exceeded": False,
                             "error": f"worker crashed, retries exhausted: "
                                      f"{exc}"}, attempt)
                # A blocking sleep is fine here: _solve_blocking only ever
                # runs on the loop's default executor (_handle hands it
                # to run_in_executor), so this backoff sleeps a worker
                # thread, never the event loop.
                time.sleep(delay)
                attempt += 1

    def _note_heartbeat(self, frame) -> None:
        # Every frame a worker streams besides its result lands here;
        # what is not a well-formed heartbeat is quarantined.
        self.supervisor.note_heartbeat(_STRATEGY, frame)

    # ------------------------------------------------------------------
    # Responses and write-back
    # ------------------------------------------------------------------

    def _classify(self, pending: _Pending, payload: dict,
                  hit: Optional[CacheEntry]) -> dict:
        request_id = pending.request.id
        cache_info = {"hit": "exact" if hit is not None else None}
        status = payload.get("status")
        if payload.get("cancelled") or (pending.cancel_requested
                                        and status == "unknown"):
            return {"type": "cancelled", "id": request_id,
                    "cache": cache_info}
        if status == "error":
            return {"type": "error", "id": request_id,
                    "error": payload.get("error", "worker failure"),
                    "cache": cache_info}
        if payload.get("deadline_exceeded"):
            return {"type": "timeout", "id": request_id,
                    "cache": cache_info}
        return {
            "type": "result", "id": request_id, "status": status,
            "schedules": payload.get("schedules", ()),
            "statistics": payload.get("statistics", {}),
            "stages_completed": payload.get("stages_completed", 0),
            "unsat_explanation": payload.get("unsat_explanation"),
            "cache": cache_info,
        }

    def _write_back(self, request: SynthesisRequest,
                    fingerprint: Optional[str], payload: dict,
                    response: dict, hit: Optional[CacheEntry]) -> None:
        if fingerprint is None or response["type"] != "result":
            return
        stats = payload.get("statistics", {}) or {}
        if hit is not None and hit.work:
            baseline = (hit.work.get("conflicts", 0)
                        + hit.work.get("decisions", 0))
            spent = stats.get("conflicts", 0) + stats.get("decisions", 0)
            saved = baseline - spent
            if saved > 0:
                self.counters["warm_start_conflict_savings"] += saved
        status = payload.get("status")
        if status not in ("sat", "unsat"):
            return
        if hit is not None and not (
                status == "sat" and hit.schedules is None):
            return  # the entry is already this problem's knowledge
        self.cache.store(
            fingerprint, request.options, status,
            knowledge=payload.get("knowledge"),
            work={key: stats.get(key, 0) for key in WORK_COUNTERS},
            schedules=payload.get("schedules"),
        )

    def _respond(self, pending: _Pending, frame: dict) -> None:
        self._pending.pop(pending.request.id, None)
        if pending.future.done():
            return
        self.counters["completed"] += 1
        self.counters[frame["type"]] = self.counters.get(frame["type"], 0) + 1
        pending.future.set_result(frame)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The ``stats`` frame's metrics payload."""
        def dist(values: List[float]) -> dict:
            return {
                "count": len(values),
                "mean": sum(values) / len(values) if values else 0.0,
                "p50": _percentile(values, 0.50),
                "p99": _percentile(values, 0.99),
            }
        return {
            "requests": dict(self.counters),
            "latency": {
                "queue_wait": dist(self._queue_waits),
                "solve_wall": dist(self._solve_walls),
                "total": dist(self._totals),
            },
            "cache": (self.cache.statistics
                      if self.cache is not None else None),
            "supervision": self.supervisor.statistics,
            "workers": [
                {"name": w.name, "mode": w.mode, "alive": w.alive,
                 "restarts": w.restarts}
                for w in self._workers
            ],
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": self._inflight,
            "draining": self._draining,
        }

    # ------------------------------------------------------------------
    # TCP front-end (JSON lines)
    # ------------------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> Tuple[str, int]:
        """Bind the JSON-line endpoint; returns the bound (host, port)."""
        if not self._started:
            await self.start()
        self._tcp = await asyncio.start_server(self._handle_conn, host, port,
                                               limit=FRAME_LIMIT)
        bound = self._tcp.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()
        replies: List[asyncio.Task] = []

        async def send(frame: dict) -> None:
            async with lock:
                writer.write(encode_frame(frame))
                await writer.drain()

        try:
            async for line in _lines(reader):
                if line is None:
                    await send({"type": "error", "id": None,
                                "error": f"frame longer than {FRAME_LIMIT} "
                                         "bytes"})
                    continue
                if not line.strip():
                    continue
                frame: Dict = {}
                try:
                    frame = decode_frame(line)
                    await self._handle_frame(frame, send, replies)
                except ProtocolError as exc:
                    await send({"type": "error", "id": frame.get("id"),
                                "error": str(exc)})
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            if replies:
                await asyncio.gather(*replies, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _handle_frame(self, frame: dict, send, replies) -> None:
        op = frame.get("op")
        if op == "solve":
            future = await self.submit(request_from_wire(frame))
            replies.append(asyncio.ensure_future(self._pipe(future, send)))
        elif op == "batch":
            requests = frame.get("requests")
            if not isinstance(requests, list):
                raise ProtocolError("batch frame needs a 'requests' list")
            for entry in requests:
                if not isinstance(entry, dict):
                    raise ProtocolError("batch entries must be objects")
                future = await self.submit(request_from_wire(entry))
                replies.append(
                    asyncio.ensure_future(self._pipe(future, send)))
        elif op == "cancel":
            request_id = frame.get("id")
            found = (isinstance(request_id, str)
                     and await self.cancel(request_id))
            await send({"type": "ack", "op": "cancel",
                        "id": request_id, "found": found})
        elif op == "stats":
            await send({"type": "stats", "metrics": self.stats()})
        elif op == "drain":
            await self.drain()
            await send({"type": "ack", "op": "drain"})
        else:
            raise ProtocolError(f"unknown op {op!r}")

    @staticmethod
    async def _pipe(future: asyncio.Future, send) -> None:
        await send(_json_safe(dict(await future)))


def _json_safe(value):
    """Strip non-JSON values (tuples -> lists, drop exotic objects)."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


async def _lines(reader: asyncio.StreamReader) -> AsyncIterator[Optional[bytes]]:
    """The lines of ``reader`` until EOF (the last may lack its newline).

    A line longer than the stream's limit yields ``None`` once, after
    its bytes have been discarded through its newline, so the caller can
    answer it and read on.
    """
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            if oversized:
                yield None
            elif exc.partial:
                yield exc.partial
            return
        except asyncio.LimitOverrunError as exc:
            # Nothing was consumed: drop what the reader holds (up to,
            # not including, a newline it found) and look again.
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        if oversized:
            oversized = False
            yield None
        else:
            yield line
