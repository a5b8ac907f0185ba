"""The synthesis driver: basic SMT solve + the two scalability heuristics.

* **Basic solution**: one SMT query over all messages of the hyper-period
  (``stages=1``), with ``routes=None`` meaning *all* simple routes are
  candidates (the paper's complete formulation).  They are not encoded
  up front: each message starts on its shortest route, and a route is
  added only where an unsat core asks for it (:func:`check_routed`;
  the soundness argument is in :mod:`repro.core.encoding`).
* **Route subset** (Sec. V-C-1): ``routes=K`` restricts each application
  to its first K shortest routes — a prefix of the all-routes order
  (:func:`~repro.network.paths.yen_routes`).  It is the same loop, which
  stops extending a message at K routes: the limit is an assumption,
  never a clause.
* **Incremental synthesis** (Sec. V-C-2): ``stages=S`` divides the
  hyper-period into S time slices; each stage solves only the messages
  released in its slice, with all earlier stages' routes and release
  times frozen.  Stability constraints for an application are enforced
  in every stage that schedules one of its messages, over all of its
  messages known so far — so by an application's last stage the full
  Eq. (2) condition holds.  As the paper notes, the heuristics explore
  a subset of the solution space and may fail on solvable instances
  (evaluated in Fig. 5 / Fig. 6).

The whole run — however many stages — uses exactly **one** solving
session (:class:`repro.api.Session`, on the native engine unless the
caller injects another) and one encoder.  Each stage adds its
slice's constraints on top of the previous ones, re-checks, and freezes
the new messages by asserting their model values as equalities
(:meth:`Encoder.freeze_message`), so clauses learned in earlier stages
keep pruning later ones instead of being rebuilt from scratch per stage.

Contention (Eq. 5) is lazy: every ``sat`` check of a stage goes through
:func:`check_refined`, which asserts the pair clauses the model violates
(:meth:`Encoder.add_contention_constraints`) and re-checks until a model
overlaps no pair (statistics: ``contention_pairs``,
``contention_rounds``).

**Core-driven stage repair** (``repair``, opt-in) leans on the session
API's assumption machinery: stage freezes are guarded by per-message
assumption literals instead of permanent equalities.  When a later
stage is infeasible, the failing check's unsat core names the frozen
messages responsible; the driver unfreezes exactly those and re-solves
the stage jointly with them (``stage_repairs``, ``cores_extracted``),
recovering instances the plain incremental heuristic loses, in at most
:data:`MAX_REPAIR_ROUNDS` rounds per stage.  Off by default so the
paper's Fig. 5/6 heuristic-failure rates stay reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import CheckOutcome, NativeBackend, Session
from ..errors import EncodingError
from ..network.frames import MessageInstance
from ..runtime.faults import WorkerFaults
from ..smt.solver import CHECK_COUNTERS, SolverEngine
from ..smt.terms import Bool, BoolExpr
from .encoding import SHARED_NAMESPACE, Encoder, MessagePlan
from .problem import SynthesisProblem
from .seeding import (SeedKnowledge, StrategySignature, apply_route_vetoes,
                      import_presolve_clauses)
from .solution import MessageSchedule, Solution

MODE_STABILITY = "stability"
MODE_DEADLINE = "deadline"

#: Solver-work counters that are deterministic for a given code state and
#: input (the solver is single-threaded and seeded), so they compare
#: cleanly across machines: what the benches gate on and the service
#: cache records per entry.
WORK_COUNTERS = ("conflicts", "decisions", "propagations")

#: Unfreeze/re-solve iterations core-driven repair may take per stage.
MAX_REPAIR_ROUNDS = 3


@dataclass(frozen=True)
class SynthesisOptions:
    """Synthesis configuration (the knobs varied by the paper's figures).

    Attributes:
        mode: ``"stability"`` (Eqs. 2-3, 10) or ``"deadline"`` (the
            state-of-the-art baseline of Table I: only ``e2e <= period``).
        routes: number of candidate shortest routes per application
            (``None`` = all simple routes, the basic formulation);
            either way routes are encoded lazily (statistics
            ``route_extensions``).
        stages: number of incremental time slices (1 = monolithic).
        path_cutoff: optional hop bound on every candidate route.
        repair: guard stage freezes with assumption literals and use
            unsat cores to unfreeze/re-solve when a stage fails (may
            solve instances the plain heuristic cannot).
        max_conflicts: conflict budget per native-engine check; an
            exhausted check answers ``unknown`` deterministically (after
            a final mid-check export flush), which portfolio races use
            to bound a worker without losing its learned knowledge.
        seed_knowledge: a tuple of :class:`~repro.core.seeding.Knowledge`
            values from a portfolio race's shared pool or the service's
            cache — learned clauses and route vetoes from related runs,
            applied before/alongside the run's own search (statistics:
            ``clauses_imported``, ``route_vetoes_applied``).  Empty (the
            default) seeds nothing.
        faults: a :class:`~repro.runtime.faults.WorkerFaults` bundle —
            deterministic fault injection (crash-at-conflict, hang,
            slow start) for the attempt these options travel to.
            :func:`solve` never reads it: the worker harness
            (:func:`repro.runtime.harness.supervised_solve`) injects
            around the solve (see ``docs/robustness.md``).  None (the
            default) injects nothing.

    The fields shared with :class:`~repro.core.seeding.StrategySignature`
    name the solved formula (:attr:`signature`); the rest steer the
    search.
    """

    mode: str = MODE_STABILITY
    routes: Optional[int] = None
    stages: int = 1
    path_cutoff: Optional[int] = None
    repair: bool = False
    max_conflicts: Optional[int] = None
    seed_knowledge: SeedKnowledge = ()
    faults: Optional[WorkerFaults] = None

    def __post_init__(self) -> None:
        if self.mode not in (MODE_STABILITY, MODE_DEADLINE):
            raise EncodingError(f"unknown mode {self.mode!r}")
        if self.routes is not None and self.routes < 1:
            raise EncodingError("routes must be >= 1 (or None for all)")
        if self.stages < 1:
            raise EncodingError("stages must be >= 1")
        if self.max_conflicts is not None and self.max_conflicts < 1:
            raise EncodingError("max_conflicts must be >= 1 (or None)")

    @property
    def signature(self) -> StrategySignature:
        """Which formula these options solve (see the class docstring)."""
        return StrategySignature(
            *(getattr(self, f.name) for f in fields(StrategySignature)))


@dataclass
class SynthesisResult:
    """Outcome of a synthesis run."""

    status: str                      # "sat", "unsat", or "unknown"
                                     # (undecided backend)
    solution: Optional[Solution]
    synthesis_time: float
    stages_completed: int
    failed_stage: Optional[int] = None
    statistics: Dict[str, int] = field(default_factory=dict)
    #: Per-solved-stage search-effort deltas (one entry per non-empty
    #: stage, summed over that stage's checks).
    stage_statistics: List[Dict[str, int]] = field(default_factory=list)
    #: On unsat: human-readable labels of the failing check's unsat core
    #: (frozen messages, messages at the route limit), when one exists.
    unsat_explanation: Optional[List[str]] = None
    #: On a *provable* unsat (single-stage run, no heuristic freezes):
    #: ``(uid, candidate route count)`` per message the final core names
    #: at its route limit (every message when it names none) — the
    #: doomed route-subset selection a portfolio race shares with
    #: siblings.
    route_veto: Optional[Tuple[Tuple[str, int], ...]] = None

    @property
    def ok(self) -> bool:
        return self.status == "sat"


def _slice_messages(
    problem: SynthesisProblem, stages: int
) -> List[List[MessageInstance]]:
    """Partition the hyper-period's messages into release-time slices."""
    hp = problem.hyperperiod
    width = hp / stages
    slices: List[List[MessageInstance]] = [[] for _ in range(stages)]
    for m in problem.messages:
        idx = min(int(m.release / width), stages - 1)
        slices[idx].append(m)
    return slices


#: Per-stage counters beyond the per-check ones: the clauses lazy
#: contention added, and the re-checks it took to add them.
_STAGE_COUNTERS = CHECK_COUNTERS + ("contention_pairs", "contention_rounds")


class _StageAccounting:
    """Accumulates per-stage and per-run solver statistics."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {key: 0 for key in _STAGE_COUNTERS}
        self.totals.update(cores_extracted=0, stage_repairs=0,
                           clauses_imported=0, route_vetoes_applied=0,
                           route_extensions=0)
        self.stage: Dict[str, int] = {}
        self.per_stage: List[Dict[str, int]] = []

    def begin_stage(self) -> None:
        self.stage = {key: 0 for key in _STAGE_COUNTERS}

    def absorb(self, outcome) -> None:
        for key in CHECK_COUNTERS:
            delta = outcome.statistics.get(key, 0)
            self.stage[key] += delta
            self.totals[key] += delta

    def count(self, key: str, n: int = 1) -> None:
        self.totals[key] = self.totals.get(key, 0) + n
        if key in self.stage:
            self.stage[key] += n

    def end_stage(self) -> None:
        self.per_stage.append(self.stage)


class _FreezeLedger:
    """Frozen-message bookkeeping for core-driven stage repair.

    In repair mode each frozen message is pinned under a fresh guard
    literal which is *assumed* on every later check; dropping the guard
    from the assumption set re-opens the message.  Without repair the
    ledger is pass-through (permanent freezes, no guards).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.guard_by_uid: Dict[str, BoolExpr] = {}
        self.uid_by_guard: Dict[BoolExpr, str] = {}
        self.plans: Dict[str, MessagePlan] = {}
        self._generation = 0

    def assumptions(self) -> List[BoolExpr]:
        return list(self.guard_by_uid.values())

    def new_guard(self, uid: str) -> Optional[BoolExpr]:
        if not self.enabled:
            return None
        self._generation += 1
        guard = Bool(f"__freeze!{self._generation}[{uid}]")
        self.guard_by_uid[uid] = guard
        self.uid_by_guard[guard] = uid
        return guard

    def release(self, guards: Sequence[BoolExpr]) -> List[str]:
        """Drop the given freeze guards; returns the re-opened uids."""
        uids = []
        for guard in guards:
            uid = self.uid_by_guard.pop(guard, None)
            if uid is not None and self.guard_by_uid.get(uid) is guard:
                del self.guard_by_uid[uid]
                uids.append(uid)
        return uids


def open_session(options: SynthesisOptions) -> Tuple[Session, SolverEngine]:
    """The native-engine session a run under ``options`` uses, and its
    engine.

    The one place ``max_conflicts`` becomes a session: :func:`solve`
    calls it when no session is injected, the worker harness calls it to
    hang heartbeats and export hooks on the engine first.
    """
    engine = SolverEngine(max_conflicts=options.max_conflicts)
    return Session(backend=NativeBackend(engine=engine)), engine


def solve(
    problem: SynthesisProblem,
    options: Optional[SynthesisOptions] = None,
    *,
    session: Optional[Session] = None,
) -> SynthesisResult:
    """Jointly route and schedule all messages of one hyper-period.

    ``session`` injects a caller-owned :class:`repro.api.Session` (any
    backend; one without a native engine imports no seeded clauses); by
    default :func:`open_session` creates a native one according to
    ``options``.  Either is used for the entire run.
    """
    opts = options or SynthesisOptions()
    if opts.mode == MODE_STABILITY:
        problem.require_stability_specs()

    t0 = time.perf_counter()
    slices = _slice_messages(problem, opts.stages)
    if session is None:
        session, _ = open_session(opts)
    encoder = Encoder(problem, session, opts.routes, opts.path_cutoff,
                      namespace=SHARED_NAMESPACE)

    acct = _StageAccounting()
    ledger = _FreezeLedger(opts.repair)
    schedules: Dict[str, MessageSchedule] = {}
    stages_done = 0

    seed = opts.seed_knowledge
    vetoes_applied: set = set()
    if seed:
        acct.count("clauses_imported",
                   import_presolve_clauses(session, opts))

    for stage_idx, stage_messages in enumerate(slices):
        if not stage_messages:
            stages_done += 1
            continue
        acct.begin_stage()
        new_plans = [encoder.encode_message(m) for m in stage_messages]

        if opts.mode == MODE_STABILITY:
            stage_apps = {m.flow.name for m in stage_messages}
            for app_name in sorted(stage_apps):
                # The app's earlier-stage messages count too: permanent
                # freezes as constants, guarded ones through their
                # pinned variables.
                encoder.add_stability_constraints(
                    problem.app_by_name[app_name], tag=f"s{stage_idx}"
                )

        if seed:
            acct.count("route_vetoes_applied", apply_route_vetoes(
                session, encoder, opts, vetoes_applied))

        outcome = _check_stage(session, encoder, opts, acct, ledger)

        if outcome != "sat":
            # An undecided check (conflict budget, stop predicate) must not
            # be reported as proven infeasibility.
            status_name = outcome.status.name
            veto: Optional[Tuple[Tuple[str, int], ...]] = None
            if status_name == "unsat" and opts.stages == 1:
                # Single-stage unsat is a real proof that this run's
                # route-subset selection is infeasible (no heuristic
                # freezes were involved) — exportable to siblings.
                veto = _route_veto(outcome, encoder)
            return SynthesisResult(
                status=status_name,
                solution=None,
                synthesis_time=time.perf_counter() - t0,
                stages_completed=stages_done,
                failed_stage=stage_idx,
                statistics=acct.totals,
                stage_statistics=acct.per_stage + [acct.stage],
                unsat_explanation=_explain_core(outcome, ledger, encoder),
                route_veto=veto,
            )

        model = outcome.require_model()
        has_later_work = any(slices[stage_idx + 1:])
        refreeze = [encoder.plans[uid] for uid in ledger.plans
                    if uid not in ledger.guard_by_uid] if opts.repair else []
        for plan in refreeze + new_plans:
            uid = plan.message.uid
            schedules[uid] = encoder.freeze_message(
                plan, model, pin=has_later_work,
                guard=ledger.new_guard(uid) if has_later_work else None,
            )
            if opts.repair:
                ledger.plans[uid] = plan
        acct.end_stage()
        stages_done += 1

    elapsed = time.perf_counter() - t0
    solution = Solution(problem, schedules, synthesis_time=elapsed,
                        mode=opts.mode)
    return SynthesisResult(
        status="sat",
        solution=solution,
        synthesis_time=elapsed,
        stages_completed=stages_done,
        statistics=acct.totals,
        stage_statistics=acct.per_stage,
    )


def check_refined(
    session: Session,
    encoder: Encoder,
    assumptions: Sequence[BoolExpr],
    acct: Optional[_StageAccounting] = None,
) -> CheckOutcome:
    """``session.check(assumptions)``, refined until the model is
    contention-free.

    After each ``sat`` answer the encoder asserts the Eq. 5 clauses the
    model violates, and the same assumptions are checked again; a model
    that overlaps no pair ends the loop, and so does an ``unsat`` or
    ``unknown`` answer, exactly as it ends a single check.
    """
    while True:
        outcome = session.check(assumptions)
        if acct is not None:
            acct.absorb(outcome)
        if outcome != "sat":
            return outcome
        added = encoder.add_contention_constraints(outcome.require_model())
        if not added:
            return outcome
        if acct is not None:
            acct.count("contention_pairs", added)
            acct.count("contention_rounds")


def check_routed(
    session: Session,
    encoder: Encoder,
    assumptions: Sequence[BoolExpr],
    acct: Optional[_StageAccounting] = None,
) -> CheckOutcome:
    """:func:`check_refined` under every encoded message's ``within``
    assumption, extending routes until the answer is about the problem.

    A ``sat`` uses encoded routes only, and an ``unsat`` whose core names
    no ``within`` holds with every beyond literal free, so for every
    route (:mod:`repro.core.encoding`).  Otherwise each message the core
    names gets its next route (:meth:`Encoder.extend_route`, statistics:
    ``route_extensions`` counts the rounds) and the check repeats, until
    no message the core names can extend: each is at the route limit,
    and the ``unsat`` is about the routes it allows.
    """
    while True:
        within = _within_literals(encoder)
        outcome = check_refined(session, encoder,
                                list(assumptions) + list(within), acct)
        if outcome != "unsat":
            return outcome
        extended = False
        for lit in outcome.unsat_core or ():
            if lit in within:
                extended |= encoder.extend_route(within[lit])
        if not extended:
            return outcome
        if acct is not None:
            acct.count("route_extensions")


def _within_literals(encoder: Encoder) -> Dict[BoolExpr, str]:
    """Every open message's ``within`` assumption, mapped to its uid."""
    return {plan.within: uid for uid, plan in encoder.plans.items()
            if plan.within is not None}


def _route_veto(outcome: CheckOutcome,
                encoder: Encoder) -> Tuple[Tuple[str, int], ...]:
    """``(uid, encoded route count)`` of every message a single-stage
    ``unsat``'s core names (each at the route limit), or of every
    message when the core names none."""
    within = _within_literals(encoder)
    blamed = {within[lit] for lit in outcome.unsat_core or ()
              if lit in within}
    return tuple(sorted((uid, len(plan.selectors))
                        for uid, plan in encoder.plans.items()
                        if not blamed or uid in blamed))


def _check_stage(
    session: Session,
    encoder: Encoder,
    opts: SynthesisOptions,
    acct: _StageAccounting,
    ledger: _FreezeLedger,
) -> CheckOutcome:
    """One stage's :func:`check_routed` under the freezes, then (repair
    mode) core-driven unfreezing.  Its first check is on every new
    message's shortest route; the routes grow from there."""
    freezes = ledger.assumptions()
    outcome = check_routed(session, encoder, freezes, acct)
    if outcome != "sat" and opts.repair and freezes:
        rounds = 0
        while outcome != "sat" and rounds < MAX_REPAIR_ROUNDS:
            core = outcome.unsat_core or ()
            blamed = [g for g in core if g in ledger.uid_by_guard]
            if not blamed:
                break  # the freezes are not at fault; genuinely unsat
            acct.count("cores_extracted")
            acct.count("stage_repairs")
            ledger.release(blamed)
            rounds += 1
            outcome = check_routed(session, encoder, ledger.assumptions(),
                                   acct)
    return outcome


def _explain_core(outcome, ledger: _FreezeLedger, encoder: Encoder):
    """Human-readable labels for a failing check's unsat core: a frozen
    message as ``frozen[uid]``, a message at the route limit as
    ``routes[uid]<=K``.  None when the check assumed nothing but
    ``within`` literals: the core then names only messages at their
    route limit, which a single-stage run reports as its route veto."""
    within = _within_literals(encoder)
    if (outcome.unsat_core is None
            or all(lit in within for lit in outcome.assumptions)):
        return None
    labels: List[str] = []
    for expr in outcome.unsat_core:
        uid = ledger.uid_by_guard.get(expr)
        if uid is not None:
            labels.append(f"frozen[{uid}]")
        elif expr in within:
            uid = within[expr]
            labels.append(
                f"routes[{uid}]<={len(encoder.plans[uid].selectors)}")
        else:
            labels.append(repr(expr))
    return labels
