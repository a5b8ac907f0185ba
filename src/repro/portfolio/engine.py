"""Portfolio racing: run several synthesis strategies, first SAT wins.

The engine launches one worker process per strategy (bounded by
``max_workers``), watches their result pipes, and as soon as one reports
a satisfiable schedule it terminates the rest — the classic SAT-portfolio
scheme (each strategy explores a different slice of the search space, so
the *minimum* of their runtimes is usually far below any fixed choice).

Race verdicts are sound: ``unsat`` is reported only when a *complete*
strategy (all routes, no path cutoff, single stage) actually proved it
— the heuristics may fail on solvable instances, so an all-timeout or
all-heuristic-unsat race reports ``timeout`` / ``unknown`` instead, and
``PortfolioResult.verdict_by`` names the strategy that supplied the
verdict.  A complete strategy's unsat ends the race early (nothing can
beat a proof).

With ``share_knowledge`` (default on) workers stream
:class:`~repro.core.seeding.Knowledge` back over their result pipes
*while solving* — learned clauses and route-subset vetoes, both
entailed by the formula that produced them (see
:mod:`repro.core.seeding` for their soundness) — and the parent
aggregates them into a
:class:`~repro.runtime.knowledge.KnowledgePool` that seeds every restart
attempt and late launch through ``SynthesisOptions.seed_knowledge``, so
re-runs start warm instead of cold.  Knowledge is validated at the pool
boundary: a frame that fails validation is quarantined (counted, never
imported, never fatal).

The race is a *scheduler* over the shared worker runtime
(:mod:`repro.runtime`; ``docs/robustness.md``, "Worker runtime"): N
one-shot :class:`~repro.runtime.process.WorkerProcess` handles spawn,
classify frames, detect death and reap; each worker solves through
:func:`~repro.runtime.harness.supervised_solve`; and a dead or stalled
attempt is retried or given up on by the one retry rule,
:meth:`~repro.runtime.supervision.Supervisor.attempt_died`.  What this
module adds is the scheduling: the launch queue with crash-retry
backoff, one ``wait_ready`` over every running worker's pipe, the stall
clock and the race's one deadline, pool absorption of streamed
knowledge, winner/prover bookkeeping, and degradation — a strategy that
exhausts its crash budget (or cannot be spawned mid-race) hands whatever
remains undecided to the serial loop, recording
``PortfolioResult.degraded_to_serial``.  Deterministic failures can be
injected with a :mod:`~repro.runtime.faults` plan to exercise all of
this on demand.

Results always include one :class:`StrategyResult` per entered strategy,
so experiment code can attribute wins, losses, and cancellations::

    res = synthesize_portfolio(problem)
    if res.ok:
        print(res.winner, res.solution)
    for sr in res.strategy_results:
        print(sr.name, sr.status, f"{sr.wall_time:.2f}s", sr.statistics)

Workers communicate over :class:`multiprocessing.Pipe`; the schedule
travels back as plain :class:`~repro.core.solution.MessageSchedule`
records and is re-attached to the caller's problem object, so no solver
state ever crosses the process boundary.  ``backend="serial"`` runs the
strategies in order in-process (deterministic, used on platforms without
usable subprocesses and by the ``portfolio`` bench); a failed process
launch degrades to it automatically.  Knowledge sharing and crash
supervision work in both backends — serially, knowledge flows from each
finished strategy into the next, and the harness's stop predicate bounds
native attempts mid-check so the global deadline holds even inside one
long strategy.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.solution import Solution
from ..core.synthesizer import SynthesisResult
from ..runtime.faults import FaultPlan, InjectedCrash, wrap_emit
from ..runtime.frames import KIND_ARTIFACT, KIND_HEARTBEAT, KIND_RESULT
from ..runtime.harness import pipe_sink, supervised_solve
from ..runtime.knowledge import KnowledgePool, export_knowledge
from ..runtime.process import DIED, WorkerProcess, wait_ready
from ..runtime.supervision import (MAX_CRASH_RETRIES, SupervisionPolicy,
                                   Supervisor, heartbeat_frame)
from .strategies import Strategy, default_portfolio

#: Terminal per-strategy statuses.
STATUS_SAT = "sat"
STATUS_UNSAT = "unsat"
STATUS_ERROR = "error"          # the worker raised / died
STATUS_CANCELLED = "cancelled"  # lost the race, terminated
STATUS_TIMEOUT = "timeout"      # still running at the deadline
STATUS_SKIPPED = "skipped"      # never started (race decided first)
STATUS_UNKNOWN = "unknown"      # undecided (heuristic unsat / errors only)

#: Every status a strategy result may legitimately carry.  Worker
#: payloads are validated against this set so a malformed payload can
#: never masquerade as a verdict.
_STRATEGY_STATUSES = frozenset({
    STATUS_SAT, STATUS_UNSAT, STATUS_ERROR, STATUS_CANCELLED,
    STATUS_TIMEOUT, STATUS_SKIPPED, STATUS_UNKNOWN,
})


@dataclass
class StrategyResult:
    """Outcome and accounting of one strategy's run in the race."""

    name: str
    status: str
    wall_time: float                     # parent-observed elapsed seconds
    synthesis_time: float = 0.0          # worker-measured solve time
    stages_completed: int = 0
    failed_stage: Optional[int] = None
    statistics: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 1                    # launches incl. crash retries


@dataclass
class PortfolioResult:
    """Outcome of a portfolio race.

    ``status`` is ``"sat"`` (winner found), ``"unsat"`` (a *complete*
    strategy proved infeasibility), ``"timeout"`` (undecided at a
    deadline), or ``"unknown"`` (every strategy failed heuristically or
    errored — the instance may still be solvable).  ``verdict_by`` names
    the strategy whose result decided the race (None when undecided).

    ``degraded_to_serial`` records graceful degradation: some or all
    strategies ran on the in-process serial backend because workers
    could not be spawned or a strategy exhausted its crash-retry budget.
    ``supervision_statistics`` totals the race's supervision events
    (crashes, stalls, retries, heartbeats, quarantined artifacts,
    degradations — zero-filled, see
    :class:`~repro.runtime.supervision.Supervisor`).
    """

    status: str
    winner: Optional[str]                # name of the first sat strategy
    solution: Optional[Solution]
    total_time: float
    strategy_results: List[StrategyResult]
    verdict_by: Optional[str] = None
    #: Knowledge-pool counters of this race (empty when sharing is off).
    pool_statistics: Dict[str, int] = field(default_factory=dict)
    degraded_to_serial: bool = False
    supervision_statistics: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SAT

    def result_for(self, name: str) -> StrategyResult:
        for sr in self.strategy_results:
            if sr.name == name:
                return sr
        raise KeyError(f"no strategy named {name!r} in this portfolio")


def synthesize_portfolio(
    problem,
    strategies: Optional[Sequence[Strategy]] = None,
    max_workers: Optional[int] = None,
    timeout: Optional[float] = None,
    backend: str = "process",
    share_knowledge: bool = True,
    supervision: Optional[SupervisionPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> PortfolioResult:
    """Race ``strategies`` (default: :func:`default_portfolio`) on ``problem``.

    Returns the first satisfiable strategy's solution; losers are
    cancelled.  ``timeout`` bounds the race in seconds: the process
    backend enforces it by terminating workers at the deadline, while
    the serial backend enforces it *mid-strategy* for native attempts
    (the engine's stop predicate ends the check before its next
    decision) and between strategies otherwise.

    ``share_knowledge`` pools learned clauses and route vetoes across
    workers and seeds restarts/late launches with them
    (:mod:`repro.runtime.knowledge`); turn it off for strict isolation
    A/B runs.

    ``supervision`` tunes the robustness layer (heartbeat cadence, stall
    timeout, crash-retry backoff, kill grace — see
    :class:`~repro.runtime.supervision.SupervisionPolicy`);
    ``fault_plan`` injects deterministic failures for chaos testing
    (:mod:`repro.runtime.faults`).
    """
    entries = list(strategies) if strategies is not None else default_portfolio()
    if not entries:
        raise ValueError("portfolio is empty: provide at least one strategy")
    names = [s.name for s in entries]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate strategy names in portfolio: {names}")
    setup = (problem, entries, timeout, share_knowledge,
             supervision or SupervisionPolicy(), fault_plan)
    if backend == "serial":
        return _Race(*setup).run()
    if backend != "process":
        raise ValueError(f"unknown backend {backend!r} (use 'process' or 'serial')")
    try:
        return _ProcessRace(*setup, max_workers=max_workers).run()
    except OSError:
        # No subprocess could be launched at all (restricted sandbox):
        # degrade gracefully.  Launch failures *mid-race* are handled
        # inside _ProcessRace and never reach this fallback.
        return _Race(*setup).run(degraded=True)


# ---------------------------------------------------------------------------
# Running one strategy (shared by the worker processes and the serial path)
# ---------------------------------------------------------------------------


def _execute_strategy(problem, strategy: Strategy, emit=None,
                      heartbeat=None, heartbeat_interval: float = 0.0,
                      deadline: Optional[float] = None) -> dict:
    """Run one strategy to completion; return its result payload.

    ``emit`` (optional) receives :class:`~repro.core.seeding.Knowledge`
    as it becomes available: the exportable clauses at every SAT
    restart of a single-stage strategy (and at the final flush of a
    budget/stop abort, so a worker killed inside one long check
    still contributes to the pool), and learned clauses with the route
    veto on a provable unsat.  ``heartbeat`` / ``heartbeat_interval`` and
    ``deadline`` (absolute ``perf_counter`` time) go to
    :func:`~repro.runtime.harness.supervised_solve`, which tags the
    engine's statistics stream with the strategy name so benchmark
    trajectories can attribute per-check work per strategy
    (``by_backend`` roll-up in ``BENCH_*.json``).
    """
    # One blanket guard around the whole attempt (engine construction,
    # solve, knowledge export): any failure becomes this strategy's error
    # result instead of sinking the race — the serial backend runs this
    # in-process, so an escaped exception would lose every other entrant.
    # InjectedCrash is the one deliberate exception: it models a death
    # that never reports, so it must escape to the supervisor.
    try:
        opts = strategy.options
        emit = wrap_emit(emit, opts.faults)
        restart_hooks = ()
        if emit is not None:
            def flush_restart(eng) -> None:
                knowledge = export_knowledge(opts, eng, midcheck=True)
                if knowledge:
                    emit(knowledge)
            restart_hooks = (flush_restart,)
        result, engine = supervised_solve(
            problem, opts, strategy.name, deadline=deadline,
            heartbeat=heartbeat, heartbeat_interval=heartbeat_interval,
            restart_hooks=restart_hooks)
        if emit is not None and result.status == "unsat":
            # A sat ends the race; only a proof is worth handing on.
            knowledge = export_knowledge(opts, engine, result.route_veto)
            if knowledge:
                emit(knowledge)
        return _payload_of(result)
    except InjectedCrash:
        raise
    except Exception as exc:  # noqa: BLE001 - report, don't sink the race
        return {"status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}"}


def _strategy_worker(conn, problem, strategy: Strategy, share: bool = False,
                     policy: Optional[SupervisionPolicy] = None) -> None:
    """Run one strategy; stream heartbeats, knowledge and the result back."""
    # The forked worker inherits the coordinator's heap; frozen, it stays
    # out of every collection the one-shot solve triggers.
    gc.freeze()
    policy = policy or SupervisionPolicy()
    try:
        emit = None
        if share:
            def emit(knowledge) -> None:
                conn.send({"kind": KIND_ARTIFACT, "artifact": knowledge})

        # Liveness: one frame at attempt start (before any injected
        # slow-start/hang, so the stall clock starts from real signal);
        # the harness then beats from every restart boundary.
        conn.send(heartbeat_frame(strategy.name, {}, phase="start"))
        payload = _execute_strategy(
            problem, strategy, emit, heartbeat=pipe_sink(conn),
            heartbeat_interval=policy.heartbeat_interval)
        faults = strategy.options.faults
        if faults is not None and faults.drop_result:
            # Injected polite death: full solve, no result frame.  Exit
            # hard so no atexit machinery sends anything on our behalf.
            conn.close()
            os._exit(0)
        conn.send({"kind": KIND_RESULT, "payload": payload})
    except Exception as exc:  # noqa: BLE001
        try:
            # Reached only when the exchange broke mid-flight (including
            # a result send that itself raised); a best-effort error
            # result beats silence, and a dead pipe just re-raises into
            # the inner pass.  The result send that broke never left, so
            # this error result is the exchange's only one.
            conn.send({"kind": KIND_RESULT,
                       "payload": {"status": STATUS_ERROR,
                                   "error": f"{type(exc).__name__}: {exc}"}})
        except Exception:
            pass
    finally:
        conn.close()


def _payload_of(result: SynthesisResult) -> dict:
    return {
        "status": result.status,
        "synthesis_time": result.synthesis_time,
        "stages_completed": result.stages_completed,
        "failed_stage": result.failed_stage,
        "statistics": result.statistics,
        "schedules": result.solution.schedules if result.ok else None,
        "mode": result.solution.mode if result.ok else None,
    }


def _result_from_payload(
    name: str, payload: dict, wall_time: float, attempts: int = 1
) -> StrategyResult:
    """The one constructor every worker payload goes through.

    Validates the reported status against the known vocabulary (and that
    a ``sat`` claim actually carries schedules), so a corrupt or
    malformed payload surfaces as :data:`STATUS_ERROR` instead of
    masquerading as a verdict.
    """
    if not isinstance(payload, dict):
        payload = {"status": STATUS_ERROR,
                   "error": f"malformed worker payload: {payload!r:.100}"}
    status = payload.get("status")
    error = payload.get("error")
    if status not in _STRATEGY_STATUSES:
        error = f"worker reported unknown status {status!r}"
        status = STATUS_ERROR
    elif status == STATUS_SAT and payload.get("schedules") is None:
        error = "worker reported sat without a schedule payload"
        status = STATUS_ERROR
    return StrategyResult(
        name=name,
        status=status,
        wall_time=wall_time,
        synthesis_time=payload.get("synthesis_time", 0.0),
        stages_completed=payload.get("stages_completed", 0),
        failed_stage=payload.get("failed_stage"),
        statistics=payload.get("statistics", {}),
        error=error,
        attempts=attempts,
    )


def _solution_from_payload(problem, payload: dict, wall_time: float) -> Solution:
    return Solution(
        problem,
        payload["schedules"],
        synthesis_time=wall_time,
        mode=payload["mode"],
    )


def _final_verdict(
    entries: Sequence[Strategy],
    results: Sequence[StrategyResult],
    winner: Optional[str],
    timed_out: bool,
) -> Tuple[str, Optional[str]]:
    """The race's sound overall status and the strategy that supplied it.

    ``unsat`` requires a complete strategy's proof; heuristic unsats,
    errors and timeouts leave the instance undecided (``timeout`` /
    ``unknown``), never claiming infeasibility without one.
    """
    if winner is not None:
        return STATUS_SAT, winner
    complete = {s.name for s in entries if s.is_complete}
    for sr in results:
        if sr.status == STATUS_UNSAT and sr.name in complete:
            return STATUS_UNSAT, sr.name
    if timed_out or any(sr.status == STATUS_TIMEOUT for sr in results):
        return STATUS_TIMEOUT, None
    return STATUS_UNKNOWN, None


# ---------------------------------------------------------------------------
# The race: what both backends share, and the serial loop
# ---------------------------------------------------------------------------


class _Race:
    """One race's state and verdict bookkeeping, and the serial backend.

    Everything the two backends decide the same way lives here: how an
    attempt is prepared (pool seeding, fault injection), where streamed
    artifacts go, what a finished attempt means for the race (first
    ``sat`` wins, a complete strategy's ``unsat`` proves, ``timeout``
    latches), the supervised in-process attempt, and the loop that runs
    strategies one after another — the whole of the serial backend, and
    the rescue phase of a degraded process race.
    """

    def __init__(self, problem, entries: List[Strategy],
                 timeout: Optional[float], share_knowledge: bool,
                 policy: SupervisionPolicy,
                 fault_plan: Optional[FaultPlan]) -> None:
        self.problem = problem
        self.entries = entries
        self.policy = policy
        self.fault_plan = fault_plan
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + timeout if timeout is not None else None
        self.pool = KnowledgePool() if share_knowledge else None
        self.supervisor = Supervisor(policy)
        self.results: Dict[int, StrategyResult] = {}
        self.spent_wall: Dict[int, float] = {}  # wall time of dead attempts
        self.winner: Optional[Tuple[int, dict]] = None  # (idx, payload)
        self.proved = False     # a complete strategy answered unsat
        self.timed_out = False

    @property
    def decided(self) -> bool:
        return self.winner is not None or self.proved

    def deadline_open(self, now: float) -> bool:
        return self.deadline is None or now < self.deadline

    def prepared(self, strategy: Strategy, attempt: int,
                 harsh: bool) -> Strategy:
        """``strategy`` as this attempt runs it: seeded with everything
        the pool has gathered so far (restarts and late launches start
        warm instead of cold) and carrying the plan's injected faults."""
        options = strategy.options
        if self.pool is not None:
            options = self.pool.seeded_options(options)
        if self.fault_plan is not None:
            injected = self.fault_plan.for_attempt(strategy.name, attempt,
                                                   harsh=harsh)
            if injected is not None:
                options = replace(options, faults=injected)
        if options is strategy.options:
            return strategy
        return replace(strategy, options=options)

    def absorb(self, source: str, knowledge) -> None:
        """Pool one streamed Knowledge; quarantine it if validation fails."""
        if self.pool is not None and not self.pool.absorb(knowledge):
            self.supervisor.note_quarantined(source)

    def settle(self, idx: int, result: StrategyResult,
               payload: Optional[dict]) -> None:
        """Record one finished attempt's report; track race deciders."""
        self.results[idx] = result
        if result.status == STATUS_SAT:
            if self.winner is None:
                self.winner = (idx, payload)
        elif result.status == STATUS_UNSAT:
            if self.entries[idx].is_complete:
                self.proved = True  # a proof: nothing left to race for
        elif result.status == STATUS_TIMEOUT:
            self.timed_out = True

    def unrun(self, idx: int, status: str, attempts: int) -> None:
        """Account for a strategy the race ended without (re)running."""
        self.results[idx] = StrategyResult(
            name=self.entries[idx].name, status=status,
            wall_time=self.spent_wall.get(idx, 0.0), attempts=attempts)

    def run_in_process(self, idx: int, strategy: Strategy,
                       first_attempt: int) -> None:
        """One strategy's supervised in-process run (with crash retries).

        The serial twin of a worker process plus its parent-side
        supervision: an attempt that raises :class:`InjectedCrash` (or
        drops its result) is retried by the same rule, re-seeded from
        the pool.  The harness's stop predicate enforces the global
        deadline *mid-strategy*: a stopped solve answers
        ``unknown`` and is reported here as ``timeout``.
        """
        name = strategy.name
        emit = partial(self.absorb, name) if self.pool is not None else None
        attempt, retries = first_attempt, 0
        wall = self.spent_wall.get(idx, 0.0)
        while True:
            run = self.prepared(strategy, attempt, harsh=False)
            started = time.perf_counter()
            try:
                payload = _execute_strategy(self.problem, run, emit,
                                            deadline=self.deadline)
                faults = run.options.faults
                # A dropped result frame never arrives: that is a crash.
                crashed = faults is not None and faults.drop_result
            except InjectedCrash:
                crashed = True
            wall += time.perf_counter() - started
            if not crashed:
                break
            delay = self.supervisor.attempt_died(name, retries,
                                                 deadline=self.deadline)
            if delay is None:
                payload = {
                    "status": STATUS_ERROR,
                    "error": (f"crashed on every attempt "
                              f"({retries + 1} tried, "
                              f"{MAX_CRASH_RETRIES} retries allowed)"),
                }
                break
            time.sleep(delay)
            retries += 1
            attempt += 1
        result = _result_from_payload(name, payload, wall, attempts=attempt)
        if (result.status == STATUS_UNKNOWN
                and not self.deadline_open(time.perf_counter())):
            # The deadline stopped this attempt mid-check: that unknown
            # is really the race's deadline expiring.
            result.status = STATUS_TIMEOUT
        self.settle(idx, result, payload)

    def run_serially(self, queue: Sequence[Tuple[int, Strategy, int]],
                     lost_status: str) -> bool:
        """Run ``(idx, strategy, next_attempt)`` entries one after
        another while the race is undecided and the deadline open; the
        rest are accounted ``timeout`` or ``lost_status``.  Returns
        whether anything actually ran."""
        ran = False
        for idx, strategy, attempt in queue:
            if idx in self.results:
                continue
            if not self.decided and not self.deadline_open(
                    time.perf_counter()):
                self.timed_out = True
            if self.decided or self.timed_out:
                self.unrun(idx, STATUS_TIMEOUT if self.timed_out
                           else lost_status, max(1, attempt - 1))
                continue
            ran = True
            self.run_in_process(idx, strategy, attempt)
        return ran

    def run(self, degraded: bool = False) -> PortfolioResult:
        """The serial backend: every strategy in order, in this process."""
        self.run_serially([(idx, strategy, 1)
                           for idx, strategy in enumerate(self.entries)],
                          STATUS_SKIPPED)
        return self.finish(degraded)

    def finish(self, degraded_to_serial: bool) -> PortfolioResult:
        solution = winner_name = None
        if self.winner is not None:
            idx, payload = self.winner
            winner_name = self.entries[idx].name
            solution = _solution_from_payload(self.problem, payload,
                                              self.results[idx].wall_time)
        for idx, sr in self.results.items():
            extra = self.supervisor.strategy_statistics(self.entries[idx].name)
            if extra:
                sr.statistics = {**sr.statistics, **extra}
        ordered = [self.results[i] for i in sorted(self.results)]
        status, verdict_by = _final_verdict(self.entries, ordered,
                                            winner_name, self.timed_out)
        return PortfolioResult(
            status=status,
            winner=winner_name,
            solution=solution,
            total_time=time.perf_counter() - self.t0,
            strategy_results=ordered,
            verdict_by=verdict_by,
            pool_statistics=(self.pool.statistics
                             if self.pool is not None else {}),
            degraded_to_serial=degraded_to_serial,
            supervision_statistics=self.supervisor.statistics,
        )


# ---------------------------------------------------------------------------
# Process racing: a scheduler over one-shot workers
# ---------------------------------------------------------------------------


@dataclass
class _Attempt:
    """Parent-side state of one running worker attempt."""

    worker: WorkerProcess
    started: float
    attempt: int                 # 1-based launch attempt number
    last_signal: float           # last heartbeat/artifact time (stall clock)


class _ProcessRace(_Race):
    """The process backend: launch queue, clocks, and who is running."""

    def __init__(self, *setup, max_workers: Optional[int]) -> None:
        super().__init__(*setup)
        # Default to racing *every* strategy at once: a portfolio's value
        # is the minimum of its entrants' runtimes, and even on few cores
        # the OS timeshares far better than letting one slow strategy hog
        # the lane.  ``max_workers`` caps the fan-out for
        # memory-constrained callers.
        entries = self.entries
        self.workers = max(1, min(len(entries), max_workers or len(entries)))
        # Launch queue: (idx, strategy, attempt_no, not_before).
        # ``attempt_no`` counts every launch (accounting, fault
        # targeting); ``not_before`` delays crash-retry relaunches
        # (backoff).
        self.pending: List[Tuple[int, Strategy, int, float]] = [
            (idx, s, 1, self.t0) for idx, s in enumerate(entries)
        ]
        self.running: Dict[int, _Attempt] = {}
        self.crash_retries: Dict[int, int] = {}  # relaunches granted
        # Strategies the process backend gave up on: (idx, strategy,
        # next_attempt).  Run serially after the process race settles.
        self.serial_rescue: List[Tuple[int, Strategy, int]] = []
        self.degraded = False

    def degrade(self, idx: int, strategy: Strategy, attempt: int) -> None:
        """Give up on spawning: this strategy — and, via
        :meth:`launch_available`, everything still queued — goes to the
        serial phase (a systemic fault like OOM pressure would only
        grind every remaining launch through the same budget)."""
        self.supervisor.note_degraded(strategy.name)
        self.degraded = True
        self.serial_rescue.append((idx, strategy, attempt))

    def launch_available(self) -> None:
        now = time.perf_counter()
        deferred = []
        while (self.pending and len(self.running) < self.workers
               and not self.degraded):
            idx, strategy, attempt, not_before = self.pending.pop(0)
            if not_before > now:
                deferred.append((idx, strategy, attempt, not_before))
                continue
            launched = self.prepared(strategy, attempt, harsh=True)
            try:
                worker = WorkerProcess(
                    _strategy_worker,
                    (self.problem, launched, self.pool is not None,
                     self.policy),
                    name=f"portfolio-{strategy.name}", duplex=False,
                    kill_grace=self.policy.kill_grace)
            except OSError:
                if not (self.running or self.results or self.serial_rescue):
                    # Nothing launched yet: let the caller fall back to
                    # the serial backend wholesale.
                    raise
                # Mid-race launch failure (e.g. EAGAIN near the process
                # limit): the process backend is no longer trustworthy.
                self.degrade(idx, strategy, attempt)
                continue
            started = time.perf_counter()
            self.running[idx] = _Attempt(worker, started, attempt,
                                         last_signal=started)
        self.pending.extend(deferred)
        if self.degraded:
            self.serial_rescue.extend(
                (idx, strategy, attempt)
                for idx, strategy, attempt, _nb in self.pending)
            self.pending.clear()

    def drain(self, idx: int) -> Optional[Tuple[str, object]]:
        """Act on a worker's queued frames; return what ended them.

        Heartbeats refresh the stall clock and feed the supervisor,
        artifacts are absorbed into the pool, garbage is quarantined —
        and the worker keeps running.  Returns None while it is still
        going, ``(KIND_RESULT, frame)`` when it reported, or
        ``(DIED, None)`` on EOF.
        """
        att = self.running[idx]
        name = self.entries[idx].name
        for kind, frame in att.worker.drain():
            if kind == KIND_RESULT or kind == DIED:
                return kind, frame
            if kind == KIND_HEARTBEAT:
                att.last_signal = time.perf_counter()
                self.supervisor.note_heartbeat(name, frame)
            elif kind == KIND_ARTIFACT:
                att.last_signal = time.perf_counter()
                self.absorb(name, frame.get("artifact"))
            else:
                self.supervisor.note_quarantined(name)
        return None

    def report(self, idx: int, frame: dict) -> None:
        """Settle a worker that sent its result frame."""
        att = self.running.pop(idx)
        wall = (self.spent_wall.get(idx, 0.0)
                + time.perf_counter() - att.started)
        att.worker.reap(linger=True)
        payload = frame.get("payload")
        self.settle(idx, _result_from_payload(
            self.entries[idx].name, payload, wall, attempts=att.attempt),
            payload)

    def harvest(self, idx: int) -> bool:
        """Settle or bury a worker whose pipe has something; False = alive."""
        outcome = self.drain(idx)
        if outcome is None:
            return False
        kind, frame = outcome
        if kind == KIND_RESULT:
            self.report(idx, frame)
        else:
            self.attempt_died(idx, stalled=False)
        return True

    def retire(self, idx: int) -> _Attempt:
        """Stop a running attempt and book its wall time.  Its queued
        artifacts are salvaged first — a terminated worker's mid-check
        exports are still knowledge (and still validated)."""
        self.drain(idx)
        att = self.running.pop(idx)
        att.worker.reap()
        self.spent_wall[idx] = (self.spent_wall.get(idx, 0.0)
                                + time.perf_counter() - att.started)
        return att

    def attempt_died(self, idx: int, stalled: bool) -> None:
        """Supervise a crash/stall: retire, then retry or degrade."""
        att = self.retire(idx)
        strategy = self.entries[idx]
        used = self.crash_retries.get(idx, 0)
        delay = self.supervisor.attempt_died(
            strategy.name, used, stalled=stalled, deadline=self.deadline)
        if delay is None:
            # The process backend is persistently failing this strategy.
            self.degrade(idx, strategy, att.attempt + 1)
            return
        # The launch path re-seeds the retry from the knowledge pool.
        self.crash_retries[idx] = used + 1
        self.pending.append((idx, strategy, att.attempt + 1,
                             time.perf_counter() + delay))

    def next_wake(self, now: float) -> float:
        """Seconds until some clock needs the scheduler (capped at 0.1)."""
        wakes = [now + 0.1]
        if self.deadline is not None:
            wakes.append(self.deadline)
        for idx, att in self.running.items():
            if self.policy.stall_timeout is not None:
                wakes.append(att.last_signal + self.policy.stall_timeout)
        wakes.extend(entry[3] for entry in self.pending)
        return max(0.0, min(wakes) - now)

    def run(self) -> PortfolioResult:
        policy = self.policy
        running = self.running
        self.launch_available()
        while (running or self.pending) and not self.decided:
            now = time.perf_counter()
            if not self.deadline_open(now):
                self.timed_out = True
                break
            ready = wait_ready([att.worker for att in running.values()],
                               self.next_wake(now))
            # Harvest *every* ready worker before declaring the race
            # over, so strategies that finished in the same poll window
            # report their real status instead of being miscounted as
            # cancelled (the winner is still the first sat in launch
            # order).
            for idx in sorted(running):
                if idx in running and running[idx].worker in ready:
                    self.harvest(idx)
            now = time.perf_counter()
            if not self.deadline_open(now):
                self.timed_out = True
                break
            if self.decided:
                break
            # Stall detection: a worker silent past the timeout is dead
            # to us even if the process is technically alive (hung in
            # native code, swapping, or fault-injected into a sleep
            # loop).
            if policy.stall_timeout is not None:
                for idx in sorted(running):
                    if idx not in running:
                        continue
                    if (now - running[idx].last_signal
                            >= policy.stall_timeout
                            and not self.harvest(idx)):
                        self.attempt_died(idx, stalled=True)
            self.launch_available()

        if self.timed_out:
            # The deadline break above fires before draining ready pipes:
            # a result a worker sent just before the deadline still
            # decides the race, so give every running worker one final
            # look before reaping the rest as timeouts.
            for idx in sorted(running):
                outcome = self.drain(idx)
                if outcome is not None and outcome[0] == KIND_RESULT:
                    self.report(idx, outcome[1])

        # Race over: stop whoever is still working and account for
        # everyone.
        for idx in sorted(running):
            att = self.retire(idx)
            self.unrun(idx, STATUS_TIMEOUT if self.timed_out
                       else STATUS_CANCELLED, att.attempt)
        for idx, _strategy, attempt, _nb in self.pending:
            if idx in self.results:
                continue
            # A queued strategy only "timed out" if the race did; one
            # parked on a crash-retry backoff when the race was decided
            # lost it (cancelled), and one never launched at all was
            # skipped.
            if self.timed_out:
                status = STATUS_TIMEOUT
            elif attempt > 1:
                status = STATUS_CANCELLED
            else:
                status = STATUS_SKIPPED
            self.unrun(idx, status, max(1, attempt - 1))

        # Graceful degradation: strategies the process backend gave up on
        # (crash budget exhausted, or spawn failures) get one supervised
        # serial pass — but only while the race is still undecided and
        # the global deadline open.
        return self.finish(
            self.run_serially(self.serial_rescue, STATUS_CANCELLED))
