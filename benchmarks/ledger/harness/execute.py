"""One workload, one fresh process: set-up, timed section, verification.

The run shape is the same for every workload::

    set-up   interpreter start, imports, input generation from the
             seed, server/worker start, one untimed warm-up
    timed    the op list, in order, closed loop
    after    verification, kernels (traced runs), teardown, leak check

``run_child`` is the entry point of the subprocess that ``run.py``
spawns; it writes one JSON document with the op results, the timing
marks and (when traced) the spans.
"""

from __future__ import annotations

import asyncio
import collections
import multiprocessing
import pickle
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import Session
from repro.core import solve
from repro.portfolio import synthesize_portfolio
from repro.service import (KnowledgeCache, ServicePolicy, ServiceWorker,
                           SynthesisServer, decode_frame, encode_frame,
                           problem_fingerprint)
from repro.service.protocol import ProtocolError
from repro.smt import Bool, Not, Or

from . import inputs, metrics, oracle
from .inputs import Op
from .tracing import Tracer, install, uninstall

_now = time.perf_counter

#: At most this many client connections, worker processes and race
#: workers: the reference machine has two cores.
PARALLELISM = 2


@dataclass
class OpResult:
    op: Op
    start: float
    end: float
    verdict: str
    answer: Any = field(default=None, repr=False)
    error: Optional[str] = None        # why the op counts as failed

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Timed:
    results: List[OpResult]
    begin: float
    end: float
    extras: Dict[str, Any] = field(default_factory=dict)


def _span(tracer: Optional[Tracer], name: str, op: Optional[str] = None):
    return tracer.span(name, op) if tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# In-process ops: synthesis, Session episodes, portfolio races
# ---------------------------------------------------------------------------


def run_episode(spec: Dict[str, Any], prefix: str) -> List[Dict[str, Any]]:
    """Play one Session script; returns one record per ``check``."""
    variables = [None] + [Bool(f"{prefix}.x{v}")
                          for v in range(1, spec["vars"] + 1)]

    def term(literal: int):
        return variables[literal] if literal > 0 else Not(variables[-literal])

    def formulas(clauses: Sequence[Sequence[int]]) -> list:
        return [Or(*[term(l) for l in clause]) for clause in clauses]

    session = Session()
    checks = []
    if spec["mode"] == "batch":
        for clauses in spec["formulas"]:
            session.push()
            session.add(formulas(clauses))
            checks.append({"outcome": session.check(),
                           "variables": variables, "literal_of": {}})
            session.pop()
        return checks
    session.add(formulas(spec["clauses"]))
    if spec["mode"] == "oneshot":
        return [{"outcome": session.check(), "variables": variables,
                 "literal_of": {}}]
    for step in spec["steps"]:
        if step[0] == "push":
            session.push()
            session.add(formulas(step[1]))
        elif step[0] == "pop":
            session.pop()
        else:
            literal_of = {term(l): l for l in step[1]}
            checks.append({"outcome": session.check(list(literal_of)),
                           "variables": variables, "literal_of": literal_of})
    return checks


def _episode_verdict(checks: Sequence[Dict[str, Any]]) -> str:
    return ",".join(check["outcome"].status.name for check in checks)


def _plain_checks(checks: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Outcomes as integers and booleans, for :func:`oracle.certify_episode`."""
    plain = []
    for check in checks:
        outcome, variables = check["outcome"], check["variables"]
        record: Dict[str, Any] = {"status": outcome.status.name,
                                  "model": None, "core": None}
        if outcome.model is not None:
            bools = outcome.model.bools
            record["model"] = {v: bools.get(variables[v], False)
                               for v in range(1, len(variables))}
        if outcome.unsat_core is not None:
            record["core"] = [check["literal_of"][expr]
                              for expr in outcome.unsat_core]
        plain.append(record)
    return plain


def _do_op(op: Op, tracer: Optional[Tracer]) -> Tuple[str, Any]:
    if op.kind == "synth":
        problem, options = op.payload
        with _span(tracer, "synth.solve"):
            result = solve(problem, options)
        return result.status, result
    if op.kind == "session":
        checks = run_episode(op.payload, op.op_id)
        return _episode_verdict(checks), checks
    result = synthesize_portfolio(
        op.payload, inputs.race_strategies(), backend="process",
        max_workers=PARALLELISM, timeout=op.limit_s, share_knowledge=True)
    return result.status, result


def _warm_up(workload: str, scale: float) -> None:
    if workload == "session_bool":
        run_episode(inputs.session_warmup(), "warmup")
        return
    problem, options = inputs.synth_warmup(scale)
    solve(problem, options)
    if workload == "portfolio_race":
        synthesize_portfolio(problem, inputs.race_strategies(),
                             backend="process", max_workers=PARALLELISM,
                             share_knowledge=True)


def run_sequential(workload: str, ops: Sequence[Op], scale: float,
                   tracer: Optional[Tracer],
                   ready: Callable[[], bool]) -> Optional[Timed]:
    _warm_up(workload, scale)
    if not ready():
        return None
    results = []
    begin = _now()
    for op in ops:
        start = _now()
        try:
            with _span(tracer, "op", op.op_id):
                verdict, answer = _do_op(op, tracer)
            results.append(OpResult(op, start, _now(), verdict, answer))
        except Exception as exc:  # an op that raises is a failed op
            results.append(OpResult(op, start, _now(), "error",
                                    error=f"{type(exc).__name__}: {exc}"))
    return Timed(results, begin, _now())


# ---------------------------------------------------------------------------
# Service ops: JSON-line requests over TCP, closed loop
# ---------------------------------------------------------------------------


async def _round_trip(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter, frame: dict,
                      limit_s: float) -> dict:
    writer.write(encode_frame(frame))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), limit_s)
    if not line:
        raise ConnectionError("server closed the connection")
    return decode_frame(line)


async def _serve(ops: Sequence[Op], tracer: Optional[Tracer], workdir: Path,
                 ready: Callable[[], bool]) -> Optional[Timed]:
    cache = KnowledgeCache(workdir / "cache")
    server = SynthesisServer(
        ServicePolicy(workers=PARALLELISM, worker_mode="process"), cache)
    await server.start()
    connections = []
    try:
        host, port = await server.serve_tcp()
        for _ in range(PARALLELISM):
            connections.append(await asyncio.open_connection(
                host, port, limit=1 << 22))
        warm = inputs.service_warmup()
        await asyncio.gather(*[
            _round_trip(reader, writer,
                        dict(warm.payload["frame"], id=f"warmup-{i}"),
                        warm.limit_s)
            for i, (reader, writer) in enumerate(connections)])
        if not ready():
            return None

        counters_before = dict(cache.statistics)
        pending = collections.deque(ops)
        results: List[OpResult] = []

        async def client(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            while pending:
                op = pending.popleft()
                frame = dict(op.payload["frame"], id=op.op_id)
                start = _now()
                try:
                    # Past the request's own deadline the server answers
                    # "timeout"; the slack only covers a wedged server.
                    reply = await _round_trip(reader, writer, frame,
                                              op.limit_s + 5.0)
                except (asyncio.TimeoutError, OSError, ProtocolError) as exc:
                    results.append(OpResult(
                        op, start, _now(), "error",
                        error=f"{type(exc).__name__}: {exc}"))
                    return          # this connection's state is unknown
                end = _now()
                if tracer is not None:
                    tracer.record("request", start, end, op.op_id)
                results.append(OpResult(
                    op, start, end, reply.get("status") or reply["type"],
                    reply))

        begin = _now()
        await asyncio.gather(*[client(r, w) for r, w in connections])
        end = _now()
        results.extend(OpResult(op, end, end, "error", error="not attempted")
                       for op in pending)
        stats = server.stats()
        cache_delta = {key: value - counters_before.get(key, 0)
                       for key, value in cache.statistics.items()
                       if key not in ("entries", "bytes")}
        cache_delta["bytes"] = cache.total_bytes
        return Timed(results, begin, end, {
            "cache": cache_delta,
            "worker_restarts": sum(w["restarts"] for w in stats["workers"]),
            "worker_crashes": stats["supervision"].get("crashes", 0),
        })
    finally:
        for _, writer in connections:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        await server.shutdown()


# ---------------------------------------------------------------------------
# Verification (untimed)
# ---------------------------------------------------------------------------


class Verifier:
    """Decides, op by op, whether the answer given is correct."""

    def __init__(self, workload: str, seed: int, ops: Sequence[Op],
                 tracer: Optional[Tracer]) -> None:
        self.expected = oracle.load_expected(workload, seed, ops)
        self.tracer = tracer
        self.reference: Dict[str, str] = {}
        self.oracle_solves = 0

    def _want(self, op: Op) -> str:
        if op.expect is not None:
            return op.expect
        if self.expected is not None:
            return self.expected[op.fingerprint]
        if op.fingerprint not in self.reference:
            self.oracle_solves += 1
            self.reference[op.fingerprint] = oracle.reference_verdict(op)
        return self.reference[op.fingerprint]

    def _certify(self, result: OpResult) -> Optional[str]:
        """What is wrong with a ``sat`` answer (None: certified)."""
        op, answer = result.op, result.answer
        with _span(self.tracer, "validator.certify", op.op_id):
            if op.kind == "session":
                return oracle.certify_episode(op.payload, _plain_checks(answer))
            if op.kind == "request":
                return oracle.certify_schedule(oracle.solution_from_wire(
                    op.payload["problem"], answer.get("schedules") or (),
                    op.payload["options"].mode))
            return oracle.certify_schedule(answer.solution)

    def check(self, result: OpResult) -> Optional[str]:
        """Why ``result`` counts as failed, or None."""
        op = result.op
        if result.error is not None:
            return result.error
        if result.latency > op.limit_s:
            return f"over its {op.limit_s:g} s limit"
        if op.kind == "request" and result.answer.get("type") != "result":
            return f"reply type {result.answer.get('type')!r}"
        verdicts = set(result.verdict.split(","))
        if not verdicts <= {"sat", "unsat"}:
            return f"verdict {result.verdict}"
        if "sat" in verdicts or op.kind == "session":
            problem = self._certify(result)
            if problem is not None:
                return problem
        # A certified sat needs no second opinion; an unsat does, and a
        # committed expectation is compared either way.
        if "unsat" in verdicts or self.expected is not None:
            want = self._want(op)
            if result.verdict != want:
                return f"verdict {result.verdict}, expected {want}"
        return None


# ---------------------------------------------------------------------------
# Kernels: direct timed calls on the workload's own inputs (traced runs)
# ---------------------------------------------------------------------------


def _median_us(fn: Callable[[], Any], repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = _now()
        fn()
        samples.append(_now() - start)
    return statistics.median(samples) * 1e6


#: The kernels sample at most this many distinct requests.  A count,
#: not a time budget: which requests feed the kernels' numbers and
#: spans must not depend on how fast the machine is today.
KERNEL_SAMPLE = 30


def service_kernels(ops: Sequence[Op], tracer: Tracer) -> Dict[str, Any]:
    """Per-request fixed costs, measured outside the server.

    All three passes below run over one sample of the distinct requests:
    every one of them when there are at most ``KERNEL_SAMPLE`` (the 16
    bases of ``service_repeat``, so ``cache.warm_work_ratio`` finds each
    hit's cold cost), else ``KERNEL_SAMPLE`` of them at a fixed stride
    through the requests ordered by message count (``service_unique``,
    which has no hits to compare).  The last pass's traced direct solves
    are where the service workloads' encoder/solver layer split comes
    from.
    """
    distinct: Dict[str, Op] = {}
    for op in ops:
        distinct.setdefault(op.fingerprint, op)
    sample = sorted(distinct.values(),
                    key=lambda op: (len(op.payload["problem"].messages),
                                    op.op_id))
    if len(sample) > KERNEL_SAMPLE:
        step = len(sample) / KERNEL_SAMPLE
        sample = [sample[int(i * step)] for i in range(KERNEL_SAMPLE)]
    out: Dict[str, Any] = {}

    encode, decode, size, fingerprint, pickled = [], [], [], [], []
    for op in sample:
        payload = op.payload
        frame = dict(payload["frame"], id=op.op_id)
        line = encode_frame(frame)
        encode.append(_median_us(lambda: encode_frame(frame)))
        decode.append(_median_us(lambda: decode_frame(line)))
        size.append(len(line))
        fingerprint.append(_median_us(lambda: problem_fingerprint(
            payload["problem"], payload["options"])))
        pickled.append(_median_us(lambda: pickle.dumps(
            {"problem": payload["problem"], "options": payload["options"]})))
    out["protocol.encode_us"] = statistics.median(encode)
    out["protocol.decode_us"] = statistics.median(decode)
    out["protocol.request_bytes"] = statistics.median(size)
    out["fingerprint.us"] = statistics.median(fingerprint)
    out["workers.pickle_request_us"] = statistics.median(pickled)

    # Round trip through a persistent worker against the same solve in
    # this process, both untraced (the wrappers would slow only one side).
    uninstall()
    try:
        direct, through, results = [], [], []
        start = _now()
        worker = ServiceWorker(name="kernel")
        try:
            first = sample[0].payload
            worker.solve("spawn", first["problem"], first["options"])
            out["workers.spawn_s"] = _now() - start
            for op in sample:
                payload = op.payload
                t0 = _now()
                solve(payload["problem"], payload["options"])
                t1 = _now()
                results.append(worker.solve(op.op_id, payload["problem"],
                                            payload["options"]))
                t2 = _now()
                direct.append(t1 - t0)
                through.append(t2 - t1)
        finally:
            worker.close()
    finally:
        install(tracer)
    out["workers.roundtrip_overhead_ms"] = (
        statistics.median(through) - statistics.median(direct)) * 1e3
    out["workers.pickle_result_us"] = statistics.median(
        [_median_us(lambda: pickle.dumps(r)) for r in results])

    cold_work: Dict[str, int] = {}
    with tracer.span("kernel"):
        for op in sample:
            payload = op.payload
            with tracer.span("synth.solve", op.op_id):
                result = solve(payload["problem"], payload["options"])
            cold_work[op.fingerprint] = (result.statistics["conflicts"]
                                         + result.statistics["decisions"])
    out["cold_work"] = cold_work
    return out


# ---------------------------------------------------------------------------
# The child process
# ---------------------------------------------------------------------------


def _reap_children() -> int:
    for proc in multiprocessing.active_children():
        proc.join(timeout=2.0)
    return len(multiprocessing.active_children())


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              spawned_at: float, setup_only: bool,
              workdir: Path) -> Dict[str, Any]:
    """Run one workload in this (fresh) process; returns the raw record."""
    scale = seconds / 10.0
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    with _span(tracer, "setup.inputs"):
        ops = inputs.build(workload, seed, scale)
    specs = ({"stability.spec_s": tracer.busy("stability.spec"),
              "stability.specs": tracer.calls("stability.spec")}
             if tracer is not None else {})
    marks: Dict[str, float] = {}

    def ready() -> bool:
        if tracer is not None:
            tracer.clear()
        marks["ready"] = _now()
        return not setup_only

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload.startswith("service_"):
            timed = asyncio.run(_serve(ops, tracer, workdir, ready))
        else:
            timed = run_sequential(workload, ops, scale, tracer, ready)
        record: Dict[str, Any] = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "traced": trace, "setup_s": marks["ready"] - spawned_at,
        }
        if timed is None:
            record["leaked_children"] = _reap_children()
            return record

        verifier = Verifier(workload, seed, ops, tracer)
        failures = {}
        for result in timed.results:
            reason = verifier.check(result)
            if reason is not None:
                result.error = reason
                failures[result.op.op_id] = reason
        kernels: Dict[str, Any] = {}
        if tracer is not None and workload.startswith("service_"):
            kernels = service_kernels(ops, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            uninstall()
    leaked = _reap_children()
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record.update({
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "leaked_children": leaked,
        "timed_s": timed.end - timed.begin,
        "peak_rss_mb": usage / 1024.0,
        "oracle_solves": verifier.oracle_solves,
        "expected_file": verifier.expected is not None,
        "end_to_end": metrics.end_to_end(timed, marks["ready"] - spawned_at,
                                         usage / 1024.0),
        "per_layer": metrics.per_layer(workload, timed, tracer, specs,
                                       kernels),
    })
    record["sanity"] = metrics.sanity(workload, record["per_layer"],
                                      traced=trace, full_scale=scale >= 1.0)
    if tracer is not None:
        record["spans"] = tracer.to_json()
    return record
