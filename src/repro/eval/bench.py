"""Regression-tracked benchmark harness: ``BENCH_<name>.json`` emission.

Every perf-sensitive experiment can be run through :func:`run_bench`, which
measures wall time, collects the solver's search/theory statistics (per
check and aggregated), records the sat/unsat statuses and whether the
produced models certify, and writes the whole trajectory to
``BENCH_<name>.json``.  Perf PRs are quantified by comparing such a file
against a committed baseline (:func:`compare`): a wall-time increase past
the threshold, or *any* status mismatch, is a regression.

CLI (see ``python -m repro.eval bench --help``)::

    python -m repro.eval bench --bench table1 fig3 --out .
    python -m repro.eval bench --baseline-dir benchmarks/baselines \
        --fail-threshold 0.25

The committed baselines live in ``benchmarks/baselines/``; CI reruns the
quick suite, uploads the fresh ``BENCH_*.json`` as an artifact and fails
on >25% wall-time regression (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..core.synthesizer import WORK_COUNTERS
from . import experiments

#: Quick (CI-sized) scales: small enough for a laptop/CI smoke run while
#: still exercising the theory hot path (table1 is simplex/DL dominated).
QUICK_SCALES: Dict[str, dict] = {
    "table1": {"n_apps": 4, "routes": 3, "stages": 5},
    "fig3": {"n_points": 13, "n_segments": 3},
    "fig4": {"n_problems": 2, "stages_list": (3, 5), "routes": 3, "n_apps": 5},
    "backends": {"n_apps": 3, "routes": 2, "stages": 3},
    "unsat_core": {"routes": 2},
    "portfolio": {"n_apps": 3, "islands": 2},
    "faults": {"n_apps": 4, "gm_apps": 4, "timeout": 60.0},
    "service": {"workers": 2, "deadline": 120.0},
}


def _digest(text: str) -> str:
    """Stable fingerprint of a rendered result (identical-output evidence)."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _bench_table1(scale: dict) -> dict:
    result = experiments.run_table1(**scale)
    statuses = {
        "stability": result.stability_status,
        "deadline": result.deadline_status,
    }
    # Claim 2, search-independent: can the app be unstable while every
    # deadline holds?  The sampled deadline schedule's stable count
    # below is informative only.
    for app, verdict in result.unstable_verdicts.items():
        statuses[f"unstable/{app}"] = verdict
    return {
        "statuses": statuses,
        "stable_counts": {
            "stability": result.stability_stable_count,
            "deadline": result.deadline_stable_count,
        },
        "solve_times": {
            "stability": result.stability_time,
            "deadline": result.deadline_time,
        },
        # run_table1 asserts collect_violations() == [] on every sat
        # result and every witness, so reaching this point certifies
        # the models.
        "certified": result.stability_status == "sat",
        "render_digest": _digest(result.render()),
    }


def _bench_fig3(scale: dict) -> dict:
    result = experiments.run_fig3(**scale)
    return {
        "statuses": {"fig3": "ok"},
        "n_points": len(result.curve.as_table()),
        "render_digest": _digest(result.render()),
    }


def _fig4_digest(result: "experiments.Fig4Result") -> str:
    """Fingerprint of a Fig. 4 sweep without its wall times: each
    point's status and message count, so equal searches hash equal."""
    return _digest(repr([
        (s, p.seed, p.status, p.n_messages)
        for s, pts in sorted(result.points.items())
        for p in pts
    ]))


def _bench_fig4(scale: dict) -> dict:
    result = experiments.run_fig4(**scale)
    statuses = {
        f"stages={s}/seed={p.seed}": p.status
        for s, pts in sorted(result.points.items())
        for p in pts
    }
    return {"statuses": statuses, "render_digest": _fig4_digest(result)}


def _bench_backends(scale: dict) -> dict:
    """Native vs serialization backend agreement on the automotive case.

    Runs the same quick-scale synthesis through both registered session
    backends; any status disagreement is a hard regression (the
    acceptance gate of the pluggable-backend seam).
    """
    from ..api import Session
    from ..core.synthesizer import SynthesisOptions, solve
    from . import workloads

    n_apps = scale.get("n_apps", 3)
    options = SynthesisOptions(routes=scale.get("routes", 2),
                               stages=scale.get("stages", 3))
    problem = workloads.gm_case_study(n_apps=n_apps)
    statuses: Dict[str, str] = {}
    times: Dict[str, float] = {}
    for backend in ("native", "serialization"):
        result = solve(problem, options, session=Session(backend=backend))
        statuses[backend] = result.status
        times[backend] = round(result.synthesis_time, 4)
    statuses["agreement"] = (
        "ok" if statuses["native"] == statuses["serialization"] else "MISMATCH"
    )
    return {
        "statuses": statuses,
        "solve_times": times,
        "render_digest": _digest(repr(sorted(statuses.items()))),
    }


def _bench_unsat_core(scale: dict) -> dict:
    """Unsat cores in the route loop and in stage repair.

    Three deterministic instances: a satisfiable funnel whose shortest
    routes must fail (the core names the messages that get a second
    route), an infeasible funnel (unsat outright), and the
    staged-heuristic trap that core-driven repair recovers.  Statuses
    and the extension/core counters are the regression surface.
    """
    from fractions import Fraction

    from ..core.synthesizer import SynthesisOptions, solve
    from . import workloads

    routes = scale.get("routes", 2)
    statuses: Dict[str, str] = {}
    counters: Dict[str, int] = {
        "route_extensions": 0, "cores_extracted": 0, "stage_repairs": 0,
    }

    def absorb(result) -> None:
        for key in counters:
            counters[key] += result.statistics.get(key, 0)

    funnel = solve(workloads.bottleneck_problem(3, islands=1),
                   SynthesisOptions(routes=routes))
    statuses["probe_conflict"] = funnel.status
    absorb(funnel)
    infeasible = solve(
        workloads.bottleneck_problem(3, period=Fraction(35, 10000)),
        SynthesisOptions(routes=routes))
    statuses["infeasible"] = infeasible.status
    absorb(infeasible)
    trapped = solve(workloads.bottleneck_repair_problem(),
                    SynthesisOptions(routes=routes, stages=2))
    statuses["staged_trap"] = trapped.status
    absorb(trapped)
    repaired = solve(workloads.bottleneck_repair_problem(),
                     SynthesisOptions(routes=routes, stages=2, repair=True))
    statuses["staged_repaired"] = repaired.status
    absorb(repaired)
    statuses["cores_seen"] = "yes" if counters["cores_extracted"] > 0 else "NO"
    return {
        "statuses": statuses,
        "core_counters": counters,
        "render_digest": _digest(repr(sorted(statuses.items()))),
    }


def _bench_portfolio(scale: dict) -> dict:
    """Portfolio races with knowledge sharing on vs off (deterministic).

    Serial-backend races on the two sharing workloads — the sat funnel
    (routes-1's veto prunes routes-2) and its infeasible companion
    (routes-2's clauses + veto make the monolithic unsat proof nearly
    free).  The regression surface: every per-strategy and race status,
    the requirement that sharing strictly reduces summed search work
    (conflicts + decisions) at identical outcomes, and the sharing
    counters themselves.  Worker
    engines tag the per-check statistics stream as ``native[<strategy>]``,
    so the record's ``by_backend`` roll-up attributes time and conflicts
    per *strategy* (closing the per-strategy attribution item).

    A third race exercises the *mid-check* export path: a ``routes-1``
    worker on a seven-app funnel whose direct link holds five messages,
    budgeted to ``max_conflicts=50`` (far fewer than its pigeonhole
    refutation takes), aborts ``unknown`` inside its first long check —
    but its ``on_restart`` hook has already streamed learned clauses
    (tagged ``origin: mid-check``) into the pool at each restart and at
    the abort itself.  The monolithic strategy then races to ``sat``
    seeded with them.  The regression surface adds: the budgeted
    worker's ``unknown`` (never a race verdict), a nonzero
    ``midcheck_clauses_pooled`` pool counter, and at least one clause
    actually *imported* by the seeded winner.
    """
    from fractions import Fraction

    from ..core.synthesizer import SynthesisOptions
    from ..portfolio import Strategy, synthesize_portfolio
    from . import workloads

    n_apps = scale.get("n_apps", 3)
    islands = scale.get("islands", 2)
    sat_problem = workloads.sharing_problem(n_apps=n_apps, islands=islands)
    unsat_problem = workloads.sharing_unsat_problem()
    sat_strategies = [
        Strategy("routes-1", SynthesisOptions(routes=1)),
        Strategy("routes-2", SynthesisOptions(routes=2)),
    ]
    unsat_strategies = [
        Strategy("routes-2", SynthesisOptions(routes=2)),
        Strategy("routes-1", SynthesisOptions(routes=1)),
        Strategy("monolithic", SynthesisOptions(routes=None)),
    ]

    statuses: Dict[str, str] = {}
    sharing: Dict[str, int] = {}
    times: Dict[str, float] = {}
    for label, problem, strategies in (
        ("sat", sat_problem, sat_strategies),
        ("unsat", unsat_problem, unsat_strategies),
    ):
        conflicts = {}
        work = {}
        for share in (False, True):
            res = synthesize_portfolio(problem, strategies, backend="serial",
                                       share_knowledge=share)
            mode = "share" if share else "solo"
            statuses[f"{label}/{mode}/race"] = res.status
            for sr in res.strategy_results:
                statuses[f"{label}/{mode}/{sr.name}"] = sr.status
            conflicts[share] = sum(
                sr.statistics.get("conflicts", 0)
                for sr in res.strategy_results
            )
            work[share] = conflicts[share] + sum(
                sr.statistics.get("decisions", 0)
                for sr in res.strategy_results
            )
            times[f"{label}/{mode}"] = round(res.total_time, 4)
            if share:
                sharing[f"{label}_clauses_imported"] = sum(
                    sr.statistics.get("clauses_imported", 0)
                    for sr in res.strategy_results
                )
                sharing[f"{label}_vetoes_applied"] = sum(
                    sr.statistics.get("route_vetoes_applied", 0)
                    for sr in res.strategy_results
                )
                for key, value in res.pool_statistics.items():
                    sharing[f"{label}_{key}"] = value
        sharing[f"{label}_conflicts_solo"] = conflicts[False]
        sharing[f"{label}_conflicts_shared"] = conflicts[True]
        sharing[f"{label}_work_solo"] = work[False]
        sharing[f"{label}_work_shared"] = work[True]
        # Sharing must strictly reduce summed search work (conflicts +
        # decisions) at identical statuses; conflicts alone can sit at
        # the floor on these small funnels now that the theory layer
        # refutes most of the doomed subtrees by propagation.
        statuses[f"{label}/sharing_reduces_work"] = (
            "yes" if work[True] < work[False]
            and conflicts[True] <= conflicts[False] else "NO"
        )
    # Each funnel ships knowledge over its own channel: the unsat race
    # imports clauses, the sat race applies routes-1's veto.
    statuses["unsat/clauses_imported"] = (
        "yes" if sharing["unsat_clauses_imported"] > 0 else "NO")
    statuses["sat/vetoes_applied"] = (
        "yes" if sharing["sat_vetoes_applied"] > 0 else "NO")

    # Mid-check export race: the monolithic worker is budget-killed
    # inside one check; its restart-boundary exports must still reach
    # (and measurably seed) the routes-1 winner.
    midcheck_problem = workloads.bottleneck_problem(
        7, period=Fraction(8, 1000))
    midcheck_strategies = [
        Strategy("routes-1", SynthesisOptions(routes=1, max_conflicts=50)),
        Strategy("monolithic", SynthesisOptions(routes=None)),
    ]
    res = synthesize_portfolio(midcheck_problem, midcheck_strategies,
                               backend="serial", share_knowledge=True)
    statuses["midcheck/race"] = res.status
    for sr in res.strategy_results:
        statuses[f"midcheck/{sr.name}"] = sr.status
    times["midcheck"] = round(res.total_time, 4)
    imported = sum(sr.statistics.get("clauses_imported", 0)
                   for sr in res.strategy_results)
    sharing["midcheck_clauses_imported"] = imported
    for key, value in res.pool_statistics.items():
        sharing[f"midcheck_{key}"] = value
    statuses["midcheck/import_seen"] = (
        "yes" if imported > 0
        and res.pool_statistics.get("midcheck_clauses_pooled", 0) > 0
        else "NO"
    )
    return {
        "statuses": statuses,
        "sharing": sharing,
        "solve_times": times,
        "render_digest": _digest(repr(sorted(statuses.items()))),
    }


def _bench_faults(scale: dict) -> dict:
    """Chaos races under deterministic fault injection (robustness gate).

    Four supervised scenarios (see ``docs/robustness.md``), every fault
    seeded and reproducible:

    * ``sharing``/``gm`` — the acceptance races: one worker SIGKILLed at
      start, one injected into a hang, one artifact frame corrupted, on
      the sharing funnel and the automotive case study.  The regression
      surface is *verdict preservation*: the chaos race must report the
      same status as the identical fault-free race and, on ``sat``, a
      winner whose own status is ``sat`` and whose schedule certifies —
      *which* strategy wins is a timing race, not a verdict — with
      ``crash_retries >= 1`` and the corrupt frame quarantined instead
      of imported.
    * ``stall`` — the only strategy hangs on attempt 1; the missed-
      heartbeat detector must kill and relaunch it (``stalls_detected``
      and a sat verdict from attempt 2).
    * ``degrade`` — the only strategy is crashed on its first three
      process attempts, exhausting ``MAX_CRASH_RETRIES=2``; the race
      must degrade to the serial backend and still solve
      (``degraded_to_serial`` plus ``crash_budget_exhausted``).

    The record's ``supervision`` block carries the summed supervision
    counters except the timing counts: ``heartbeats_seen`` counts
    wall-clock ticks, and ``crashes`` / ``crash_retries`` count the
    injected crashes a race reaches before its verdict (4 or 5 on one
    tree).  The ``supervision/*`` statuses gate the key ones nonzero,
    and ``no_leaked_workers`` certifies that every spawned process was
    reaped.
    """
    import multiprocessing as mp

    from ..core import collect_violations
    from ..core.synthesizer import SynthesisOptions
    from ..portfolio import (FaultPlan, FaultSpec, Strategy,
                             SupervisionPolicy, synthesize_portfolio)
    from ..runtime.faults import CORRUPT, CRASH, HANG, SLOW_START
    from . import workloads

    timeout = scale.get("timeout", 60.0)
    policy = SupervisionPolicy(heartbeat_interval=0.05, stall_timeout=0.6,
                               backoff_base=0.01, kill_grace=0.5)
    statuses: Dict[str, str] = {}
    supervision: Dict[str, int] = {}
    times: Dict[str, float] = {}

    def record(label: str, res) -> None:
        statuses[f"{label}/race"] = res.status
        for sr in res.strategy_results:
            statuses[f"{label}/{sr.name}"] = sr.status
        times[label] = round(res.total_time, 4)
        for key, value in res.supervision_statistics.items():
            supervision[key] = supervision.get(key, 0) + value
        supervision[f"{label}_degraded"] = int(res.degraded_to_serial)

    # -- acceptance races: SIGKILL + hang + corrupt, verdict preserved --
    chaos_cases = {
        "sharing": (
            lambda: workloads.sharing_problem(n_apps=scale.get("n_apps", 4)),
            lambda: [
                Strategy("monolithic", SynthesisOptions()),
                Strategy("routes-1", SynthesisOptions(routes=1)),
                Strategy("routes-2", SynthesisOptions(routes=2)),
                Strategy("stages-2", SynthesisOptions(routes=3, stages=2)),
            ],
            FaultPlan([
                # routes-1 solves (unsat) and exports its proof artifacts:
                # corrupting its first frame tests quarantine on a frame
                # that reaches the pool boundary.  The sat-capable
                # strategies start slowly, or monolithic's sat (as fast
                # as routes-1's unsat) may end the race first.
                FaultSpec(CRASH, strategy="routes-2", attempt=1),
                FaultSpec(HANG, strategy="stages-2", attempt=1),
                FaultSpec(CORRUPT, strategy="routes-1", attempt=0, frame=0),
                *(FaultSpec(SLOW_START, strategy=name, attempt=0, delay=0.4)
                  for name in ("monolithic", "routes-2", "stages-2")),
            ], seed=11),
        ),
        "gm": (
            lambda: workloads.gm_case_study(n_apps=scale.get("gm_apps", 4)),
            lambda: [
                # The corrupt target: a budgeted worker would flush
                # learned clauses mid-check (winners export nothing), but
                # routes-1 wins first, so the sharing case is the one
                # whose corrupt frame reaches the pool.
                Strategy("monolithic", SynthesisOptions(max_conflicts=150)),
                Strategy("routes-1", SynthesisOptions(routes=1)),
                Strategy("stages-2", SynthesisOptions(routes=3, stages=2)),
            ],
            FaultPlan([
                FaultSpec(CRASH, strategy="routes-1", attempt=1),
                FaultSpec(HANG, strategy="stages-2", attempt=1),
                FaultSpec(CORRUPT, strategy="monolithic", attempt=0, frame=0),
                # Monolithic solves this case as fast as routes-1: held
                # back, it cannot beat routes-1's relaunch to the verdict.
                FaultSpec(SLOW_START, strategy="monolithic", attempt=0,
                          delay=2.0),
            ], seed=13),
        ),
    }
    for label, (mk_problem, mk_strategies, plan) in chaos_cases.items():
        base = synthesize_portfolio(mk_problem(), mk_strategies(),
                                    timeout=timeout, supervision=policy)
        statuses[f"{label}/fault_free"] = base.status
        chaos = synthesize_portfolio(mk_problem(), mk_strategies(),
                                     timeout=timeout, supervision=policy,
                                     fault_plan=plan)
        record(label, chaos)
        preserved = chaos.status == base.status
        if preserved and chaos.status == "sat":
            preserved = (chaos.result_for(chaos.winner).status == "sat"
                         and collect_violations(chaos.solution) == [])
        statuses[f"{label}/verdict_preserved"] = "yes" if preserved else "NO"

    # -- stall detection: the hung winner must be killed and relaunched --
    plan = FaultPlan([FaultSpec(HANG, strategy="monolithic", attempt=1)])
    res = synthesize_portfolio(
        workloads.sharing_problem(n_apps=scale.get("n_apps", 4)),
        [Strategy("monolithic", SynthesisOptions())],
        timeout=timeout, supervision=policy, fault_plan=plan)
    record("stall", res)
    statuses["stall/detected"] = (
        "yes" if res.supervision_statistics.get("stalls_detected", 0) >= 1
        and res.status == "sat" else "NO"
    )

    # -- crash-budget exhaustion: degrade to serial, still solve --
    plan = FaultPlan([FaultSpec(CRASH, strategy="monolithic", attempt=a)
                      for a in (1, 2, 3)])
    res = synthesize_portfolio(
        workloads.sharing_problem(n_apps=scale.get("n_apps", 4)),
        [Strategy("monolithic", SynthesisOptions())],
        timeout=timeout, supervision=policy, fault_plan=plan)
    record("degrade", res)
    statuses["degrade/degraded_to_serial"] = (
        "yes" if res.degraded_to_serial and res.status == "sat" else "NO"
    )

    for status, key in (("crash_retries", "crash_retries"),
                        ("quarantine", "quarantined_artifacts"),
                        ("budget_exhausted", "crash_budget_exhausted")):
        statuses[f"supervision/{status}_nonzero"] = (
            "yes" if supervision.get(key, 0) >= 1 else "NO")
    for proc in mp.active_children():
        proc.join(timeout=2.0)
    statuses["no_leaked_workers"] = (
        "yes" if not mp.active_children() else "NO"
    )
    for key in ("heartbeats_seen", "crashes", "crash_retries"):
        supervision.pop(key, None)   # timing counts, not gates
    return {
        "statuses": statuses,
        "supervision": supervision,
        "solve_times": times,
        "render_digest": _digest(repr(sorted(statuses.items()))),
    }


def _bench_service(scale: dict) -> dict:
    """The synthesis service under a seeded batched stream (cache gate).

    One process-worker :class:`~repro.service.SynthesisServer` with a
    fresh disk cache serves a deterministic request stream in two
    phases: every unique problem cold, then every problem again —
    byte-identical, so each repeat must resolve to an **exact**
    fingerprint hit.  A ``sat`` repeat is answered from the stored,
    certified schedule; the ``unsat`` repeat is solved again, seeded
    with the stored veto.  The regression surface:

    * per-problem ``pair<i>`` statuses (``cold/warm``) — any flip is a
      hard regression;
    * ``warm_sat_served`` — every ``sat`` repeat came back from the
      cache (``attempts == 0``, zero work) and the ``unsat`` one from a
      worker;
    * ``warm_conflicts_strictly_less`` — the summed conflicts of the
      warm phase must be *strictly* below the cold phase and no warm
      repeat may meet more conflicts than its cold twin (per-pair
      conflicts+decisions stay recorded as ``pair_work``);
    * chaos: a request for a problem the cache has not seen is
      SIGKILLed mid-solve (``chaos_retried``) and one long solve is
      cancelled mid-flight (``cancelled_clean``), after which
      ``no_leaked_workers`` certifies a clean reap.

    The ``service`` block carries the throughput/latency roll-up
    (req/sec, queue-wait and total p50/p99) plus the cache and
    supervision counters.  Solver work happens in worker processes, so
    the record's global ``statistics`` stay near zero — the gates above
    are the deterministic regression surface instead.
    """
    import asyncio
    import multiprocessing as mp
    import tempfile
    from fractions import Fraction

    from ..core.synthesizer import SynthesisOptions
    from ..portfolio import FaultPlan, FaultSpec, SupervisionPolicy
    from ..runtime.faults import CRASH
    from ..service import (KnowledgeCache, ServiceClient, ServicePolicy,
                           SynthesisRequest, SynthesisServer)
    from . import workloads

    workers = scale.get("workers", 2)
    deadline = scale.get("deadline", 120.0)

    # Instances whose warm repeat is checked against its cold twin: the
    # sat GM case studies and bottleneck are answered from their stored,
    # certified schedules (no worker, zero work), and the unsat
    # bottleneck re-derives infeasibility straight from the stored veto
    # and must meet no more conflicts.  Schedule-search-heavy random
    # instances are deliberately absent: they would add cold solve time
    # and no gate.
    uniques = [
        (workloads.gm_case_study(3), SynthesisOptions(routes=2)),
        (workloads.gm_case_study(3), SynthesisOptions(routes=3)),
        (workloads.bottleneck_problem(3), SynthesisOptions(routes=2)),
        (workloads.bottleneck_problem(3, period=Fraction(35, 10000)),
         SynthesisOptions(routes=2)),
    ]
    n_unique = len(uniques)

    statuses: Dict[str, str] = {}
    service: Dict[str, object] = {}

    async def drive(cache_dir: str) -> None:
        cache = KnowledgeCache(cache_dir)
        plan = FaultPlan([FaultSpec(CRASH, strategy="chaos", attempt=1)])
        policy = ServicePolicy(
            workers=workers, max_queue=4 * n_unique + 8,
            worker_mode="process",
            supervision=SupervisionPolicy(backoff_base=0.01,
                                          backoff_cap=0.05, kill_grace=0.5),
        )
        async with SynthesisServer(policy=policy, cache=cache,
                                   fault_plan=plan) as server:
            client = ServiceClient(server)
            t0 = time.perf_counter()
            cold = await client.solve_batch([
                SynthesisRequest(id=f"cold-{i}", problem=p, options=opts,
                                 deadline=deadline)
                for i, (p, opts) in enumerate(uniques)
            ])
            warm = await client.solve_batch([
                SynthesisRequest(id=f"warm-{i}", problem=p, options=opts,
                                 deadline=deadline)
                for i, (p, opts) in enumerate(uniques)
            ])
            # Chaos 1: SIGKILL the worker on this request's first
            # attempt; supervision must retry and still answer.  A
            # problem the stream has not cached, so a worker solves it.
            chaos = await client.solve(workloads.gm_case_study(2),
                                       SynthesisOptions(routes=2),
                                       deadline=deadline,
                                       request_id="chaos")
            # Chaos 2: cancel a long solve mid-flight (seconds inside
            # one monolithic check).
            _, pending = await client.submit(
                workloads.slow_funnel_problem(), deadline=deadline,
                request_id="cancelme")
            for _ in range(100):
                await asyncio.sleep(0.05)
                if server.stats()["inflight"] >= 1:
                    break
            await asyncio.sleep(0.25)
            await client.cancel("cancelme")
            cancelled = await pending
            wall = time.perf_counter() - t0
            stats = server.stats()

        def conflicts(reply: dict) -> int:
            return reply.get("statistics", {}).get("conflicts", 0)

        def work(reply: dict) -> int:
            return conflicts(reply) + reply.get("statistics", {}).get(
                "decisions", 0)

        def served(reply: dict) -> bool:
            """Answered from the cache: no worker attempt, no search."""
            return reply.get("attempts") == 0 and not any(
                reply.get("statistics", {}).get(key, 0)
                for key in WORK_COUNTERS)

        cold_conflicts = sum(conflicts(r) for r in cold)
        warm_conflicts = sum(conflicts(r) for r in warm)
        pair_work = {}
        for i, (c, w) in enumerate(zip(cold, warm)):
            statuses[f"pair{i}"] = (f"{c.get('status', c['type'])}"
                                    f"/{w.get('status', w['type'])}")
            pair_work[f"pair{i}"] = {"cold": work(c), "warm": work(w)}
        statuses["warm_statuses_match"] = (
            "yes" if all(c.get("status") == w.get("status")
                         for c, w in zip(cold, warm)) else "NO"
        )
        statuses["warm_all_exact_hits"] = (
            "yes" if all(w["cache"]["hit"] == "exact" for w in warm)
            else "NO"
        )
        statuses["warm_sat_served"] = (
            "yes" if all(served(w) == (w.get("status") == "sat")
                         for w in warm) else "NO"
        )
        statuses["warm_conflicts_strictly_less"] = (
            "yes" if warm_conflicts < cold_conflicts
            and all(conflicts(w) <= conflicts(c) for c, w in zip(cold, warm))
            else "NO"
        )
        statuses["chaos_retried"] = (
            "yes" if chaos["type"] == "result" and chaos["attempts"] >= 2
            and stats["supervision"].get("crashes", 0) >= 1 else "NO"
        )
        statuses["cancelled_clean"] = (
            "yes" if cancelled["type"] == "cancelled" else "NO"
        )
        for proc in mp.active_children():
            proc.join(timeout=2.0)
        statuses["no_leaked_workers"] = (
            "yes" if not mp.active_children() else "NO"
        )

        completed = len(cold) + len(warm) + 2
        service.update({
            "requests": completed,
            "throughput_rps": round(completed / wall, 3) if wall else 0.0,
            "latency": stats["latency"],
            "cache": stats["cache"],
            "supervision": stats["supervision"],
            "cold_conflicts": cold_conflicts,
            "warm_conflicts": warm_conflicts,
            "pair_work": pair_work,
        })

    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(drive(tmp))
    return {
        "statuses": statuses,
        "service": service,
        "render_digest": _digest(repr(sorted(statuses.items()))),
    }


_RUNNERS: Dict[str, Callable[[dict], dict]] = {
    "table1": _bench_table1,
    "fig3": _bench_fig3,
    "fig4": _bench_fig4,
    "backends": _bench_backends,
    "unsat_core": _bench_unsat_core,
    "portfolio": _bench_portfolio,
    "faults": _bench_faults,
    "service": _bench_service,
}


def run_bench(name: str, scale: Optional[dict] = None,
              out_dir: str | Path = ".") -> dict:
    """Run one named benchmark and write ``BENCH_<name>.json``.

    Returns the record that was written.  Solver search statistics are
    collected through :func:`repro.smt.solver.drain_global_check_stats`,
    which every ``SolverEngine`` feeds: the record carries one entry per
    ``check()`` (the *trajectory*) plus the aggregate.
    """
    from ..smt.solver import drain_global_check_stats

    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(f"unknown benchmark {name!r} (have {sorted(_RUNNERS)})")
    scale = dict(QUICK_SCALES[name] if scale is None else scale)
    drain_global_check_stats()  # discard anything from earlier runs
    t0 = time.perf_counter()
    payload = runner(scale)
    wall = time.perf_counter() - t0
    per_check = drain_global_check_stats()
    # Entries mix numeric counters with tags (the "backend" attribution);
    # totals sum the counters overall and per backend.
    totals: Dict[str, int] = {}
    by_backend: Dict[str, Dict[str, int]] = {}
    for entry in per_check:
        backend = str(entry.get("backend", "native"))
        bucket = by_backend.setdefault(backend, {})
        for key, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            totals[key] = totals.get(key, 0) + value
            bucket[key] = bucket.get(key, 0) + value
    if per_check:
        # Every bench that searches must move propagations and attribute
        # its checks (a race tags them per strategy, ``native[<name>]``).
        payload["statuses"]["props_per_sec_nonzero"] = (
            "yes" if totals.get("propagations", 0) > 0 else "NO")
        payload["statuses"]["check_backends"] = ",".join(sorted(by_backend))
    record = {
        "name": name,
        "scale": {k: list(v) if isinstance(v, tuple) else v
                  for k, v in scale.items()},
        "wall_s": round(wall, 4),
        # Propagations per wall second: the arena PR's headline perf
        # metric.  Machine-dependent (like wall_s), so compare() never
        # gates on it, but re-recorded baselines must not regress it.
        "props_per_sec": round(totals.get("propagations", 0) / wall, 1)
        if wall > 0 else 0.0,
        "checks": len(per_check),
        "statistics": totals,
        "by_backend": by_backend,
        "per_check": per_check,
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        **payload,
    }
    out_path = Path(out_dir) / f"BENCH_{name}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def compare(current: dict, baseline: dict, threshold: float = 0.25,
            wall_gate: bool = True) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` (empty list = clean).

    * any sat/unsat status difference is a hard regression;
    * search-effort counters above ``baseline * (1 + threshold)`` are a
      regression (deterministic, machine-independent);
    * wall time above ``baseline * (1 + threshold)`` is a regression when
      ``wall_gate`` is on — disable it when the baseline was recorded on
      different hardware (CI does; see .github/workflows/ci.yml).
    """
    problems: List[str] = []
    name = current.get("name", "?")
    base_statuses = baseline.get("statuses", {})
    cur_statuses = current.get("statuses", {})
    for key, expected in base_statuses.items():
        got = cur_statuses.get(key)
        if got != expected:
            problems.append(
                f"{name}: status of {key!r} changed {expected!r} -> {got!r}"
            )
    base_stats = baseline.get("statistics", {})
    cur_stats = current.get("statistics", {})
    for key in WORK_COUNTERS:
        base_val = base_stats.get(key, 0)
        cur_val = cur_stats.get(key, 0)
        if base_val and cur_val > base_val * (1.0 + threshold):
            problems.append(
                f"{name}: {key} regressed {base_val} -> {cur_val} "
                f"(>{threshold:.0%} over baseline)"
            )
    base_wall = baseline.get("wall_s")
    cur_wall = current.get("wall_s")
    if (wall_gate and base_wall and cur_wall
            and cur_wall > base_wall * (1.0 + threshold)):
        problems.append(
            f"{name}: wall time regressed {base_wall:.2f}s -> {cur_wall:.2f}s "
            f"(>{threshold:.0%} over baseline)"
        )
    return problems


def run_suite(
    names: Sequence[str],
    out_dir: str | Path = ".",
    baseline_dir: Optional[str | Path] = None,
    threshold: float = 0.25,
    wall_gate: bool = True,
) -> int:
    """Run benchmarks, report, and compare against committed baselines.

    Returns the number of regressions found (0 = success), printing a
    human-readable summary along the way.
    """
    regressions: List[str] = []
    for name in names:
        record = run_bench(name, out_dir=out_dir)
        line = (f"BENCH {name}: {record['wall_s']:.2f}s, "
                f"{record['checks']} checks")
        stats = record.get("statistics", {})
        if stats:
            keys = WORK_COUNTERS + ("theory_propagations",)
            line += ", " + ", ".join(
                f"{k}={stats[k]}" for k in keys if k in stats
            )
        print(line)
        if baseline_dir is not None:
            base_path = Path(baseline_dir) / f"BENCH_{name}.json"
            if base_path.exists():
                baseline = json.loads(base_path.read_text())
                found = compare(record, baseline, threshold, wall_gate=wall_gate)
                for p in found:
                    print(f"  REGRESSION: {p}")
                if not found:
                    speed = baseline["wall_s"] / record["wall_s"] if record["wall_s"] else 0
                    print(f"  vs baseline {base_path}: {speed:.2f}x")
                regressions.extend(found)
            else:
                print(f"  (no baseline at {base_path})")
    return len(regressions)
