"""The synthesis driver: basic SMT solve + the two scalability heuristics.

* **Basic solution**: one SMT query over all messages of the hyper-period
  (``stages=1``), with ``routes=None`` meaning *all* simple routes are
  candidates (the paper's complete formulation).  They are not encoded
  up front: each message starts on its shortest route, and a route is
  added only where an unsat core asks for it (:func:`refine`; the
  soundness argument is in :mod:`repro.core.encoding`).
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

Every check goes through one loop, :func:`refine`, which refines the
formula until the answer is about the problem: a ``sat`` model asserts
the Eq. 5 pair clauses it overlaps (contention is lazy), an ``unsat``
core extends the routes of the messages it names, and, under
**core-driven stage repair** (``repair``, opt-in), a core that can
extend nothing releases the frozen messages it blames.  A session from
:func:`open_session` hands over the SAT core's raw final-conflict cores,
so synthesis deletion-minimises none (an injected session keeps its own
``minimize_cores``).  In repair mode stage freezes are guarded by
per-message assumption literals instead of permanent equalities, so a
later infeasible stage re-solves jointly with exactly the messages its
core names, in at most
:data:`MAX_REPAIR_ROUNDS` rounds per stage — recovering instances the
plain incremental heuristic loses.  Off by default so the paper's
Fig. 5/6 heuristic-failure rates stay reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..api import CheckOutcome, NativeBackend, Session
from ..errors import EncodingError
from ..fieldcheck import check_fields
from ..network.frames import MessageInstance
from ..runtime.faults import WorkerFaults
from ..smt.solver import CHECK_COUNTERS, SolverEngine
from ..smt.terms import Bool, BoolExpr
from .encoding import SHARED_NAMESPACE, Encoder, MessagePlan
from .problem import SynthesisProblem
from .seeding import (MODE_NAMES, MODE_STABILITY, SeedKnowledge,
                      StrategySignature, apply_route_vetoes,
                      import_presolve_clauses)
from .solution import MessageSchedule, Solution

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
        path_cutoff: optional hop bound (>= 1) on every candidate route.
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
    name the solved formula (:attr:`signature`) and declare the same
    bounds there; the rest steer the search.  A field its annotation or
    bound refuses raises ``EncodingError``.
    """

    mode: str = field(default=MODE_STABILITY, metadata={"in": MODE_NAMES})
    routes: Optional[int] = field(default=None, metadata={"ge": 1})
    stages: int = field(default=1, metadata={"ge": 1})
    path_cutoff: Optional[int] = field(default=None, metadata={"ge": 1})
    repair: bool = False
    max_conflicts: Optional[int] = field(default=None, metadata={"ge": 1})
    seed_knowledge: SeedKnowledge = ()
    faults: Optional[WorkerFaults] = None

    def __post_init__(self) -> None:
        check_fields(self, EncodingError)

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
    #: The run's counters, summed over every check of every stage.
    statistics: Dict[str, int] = field(default_factory=dict)
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


#: Counters of one run, in the order ``SynthesisResult.statistics``
#: lists them: the per-check ones, then those :func:`refine` and the
#: knowledge seeding add.
_RUN_COUNTERS = CHECK_COUNTERS + (
    "contention_pairs", "contention_rounds", "cores_extracted",
    "stage_repairs", "clauses_imported", "route_vetoes_applied",
    "route_extensions")


class _FreezeLedger:
    """Frozen-message bookkeeping for core-driven stage repair.

    Each frozen message is pinned under a fresh guard literal which is
    *assumed* on every later check; dropping the guard from the
    assumption set re-opens the message.  A run without repair has no
    ledger: its freezes are permanent and carry no guard.
    """

    def __init__(self) -> None:
        self.guard_by_uid: Dict[str, BoolExpr] = {}
        self.uid_by_guard: Dict[BoolExpr, str] = {}
        self.plans: Dict[str, MessagePlan] = {}
        self._generation = 0

    def assumptions(self) -> List[BoolExpr]:
        return list(self.guard_by_uid.values())

    def new_guard(self, plan: MessagePlan) -> BoolExpr:
        uid = plan.message.uid
        self._generation += 1
        guard = Bool(f"__freeze!{self._generation}[{uid}]")
        self.guard_by_uid[uid] = guard
        self.uid_by_guard[guard] = uid
        self.plans[uid] = plan
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
    hang heartbeats and export hooks on the engine first.  Its unsat
    cores are the SAT core's raw final-conflict cores, not
    deletion-minimised ones: :func:`refine` only needs *some* core, and
    minimising costs one full SAT solve per assumed literal.
    """
    engine = SolverEngine(max_conflicts=options.max_conflicts)
    session = Session(backend=NativeBackend(engine=engine),
                      minimize_cores=False)
    return session, engine


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

    totals = dict.fromkeys(_RUN_COUNTERS, 0)
    ledger = _FreezeLedger() if opts.repair else None
    schedules: Dict[str, MessageSchedule] = {}
    stages_done = 0

    seed = opts.seed_knowledge
    vetoes_applied: set = set()
    if seed:
        totals["clauses_imported"] += import_presolve_clauses(session, opts)

    for stage_idx, stage_messages in enumerate(slices):
        if not stage_messages:
            stages_done += 1
            continue
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
            totals["route_vetoes_applied"] += apply_route_vetoes(
                session, encoder, opts, vetoes_applied)

        # The stage's first check is on every new message's shortest
        # route; the routes grow from there.
        outcome = refine(session, encoder, totals=totals, ledger=ledger)

        if outcome != "sat":
            # An undecided check (conflict budget, stop predicate) must not
            # be reported as proven infeasibility.  Single-stage unsat is a
            # real proof that this run's route-subset selection is
            # infeasible (no heuristic freezes were involved) — exportable
            # to siblings.
            veto, explanation = _blame(
                outcome, encoder, ledger,
                provable=outcome == "unsat" and opts.stages == 1)
            return SynthesisResult(
                status=outcome.status.name,
                solution=None,
                synthesis_time=time.perf_counter() - t0,
                stages_completed=stages_done,
                failed_stage=stage_idx,
                statistics=totals,
                unsat_explanation=explanation,
                route_veto=veto,
            )

        model = outcome.require_model()
        has_later_work = any(slices[stage_idx + 1:])
        refreeze = [plan for uid, plan in ledger.plans.items()
                    if uid not in ledger.guard_by_uid] if ledger else []
        for plan in refreeze + new_plans:
            guard = (ledger.new_guard(plan)
                     if ledger and has_later_work else None)
            schedules[plan.message.uid] = encoder.freeze_message(
                plan, model, pin=has_later_work, guard=guard)
        stages_done += 1

    elapsed = time.perf_counter() - t0
    solution = Solution(problem, schedules, synthesis_time=elapsed,
                        mode=opts.mode)
    return SynthesisResult(
        status="sat",
        solution=solution,
        synthesis_time=elapsed,
        stages_completed=stages_done,
        statistics=totals,
    )


def refine(
    session: Session,
    encoder: Encoder,
    assumptions: Sequence[BoolExpr] = (),
    totals: Optional[Dict[str, int]] = None,
    ledger: Optional[_FreezeLedger] = None,
) -> CheckOutcome:
    """``session.check``, refined until the answer is about the problem.

    Each round checks under ``assumptions``, then the ledger's live
    freeze guards, then every open message's ``within`` literal.

    * ``sat``: the encoder asserts the Eq. 5 clauses the model overlaps
      (``contention_pairs``; ``contention_rounds`` counts the rounds)
      and the loop checks again.  A model that overlaps no pair is the
      answer.
    * ``unsat``: each message whose ``within`` the core names gets its
      next route, all in one round (:meth:`Encoder.extend_route`;
      ``route_extensions`` counts the rounds).  Any core will do, so a
      session from :func:`open_session` hands over its raw
      final-conflict core; a raw core may name more messages than a
      minimised one, and each of them extends.  A core that names no
      ``within`` holds with every beyond literal free, so for every route
      (:mod:`repro.core.encoding`).  When no named message can extend
      (each is at the route limit), the freeze guards the core names are
      released (``cores_extracted``, ``stage_repairs``), at most
      :data:`MAX_REPAIR_ROUNDS` times per call.  Otherwise the
      ``unsat`` is the answer.
    * ``unknown`` is the answer at once.

    ``totals`` (when given) accumulates the per-check counters and the
    loop's own, keyed as :attr:`SynthesisResult.statistics`.
    """
    counts = totals if totals is not None else dict.fromkeys(_RUN_COUNTERS, 0)
    repairs = 0
    while True:
        within = _within_literals(encoder)
        guards = ledger.assumptions() if ledger else []
        outcome = session.check([*assumptions, *guards, *within])
        for key in CHECK_COUNTERS:
            counts[key] += outcome.statistics.get(key, 0)
        if outcome == "sat":
            added = encoder.add_contention_constraints(outcome.require_model())
            if not added:
                return outcome
            counts["contention_pairs"] += added
            counts["contention_rounds"] += 1
            continue
        if outcome != "unsat":
            return outcome
        core = outcome.unsat_core or ()
        extended = False
        for lit in core:
            if lit in within:
                extended |= encoder.extend_route(within[lit])
        if extended:
            counts["route_extensions"] += 1
            continue
        if not ledger or repairs >= MAX_REPAIR_ROUNDS:
            return outcome
        blamed = [lit for lit in core if lit in ledger.uid_by_guard]
        if not blamed:
            return outcome
        counts["cores_extracted"] += 1
        counts["stage_repairs"] += 1
        ledger.release(blamed)
        repairs += 1


def _within_literals(encoder: Encoder) -> Dict[BoolExpr, str]:
    """Every open message's ``within`` assumption, mapped to its uid."""
    return {plan.within: uid for uid, plan in encoder.plans.items()
            if plan.within is not None}


def _blame(
    outcome: CheckOutcome,
    encoder: Encoder,
    ledger: Optional[_FreezeLedger],
    provable: bool,
) -> Tuple[Optional[Tuple[Tuple[str, int], ...]], Optional[List[str]]]:
    """A failing stage's ``(route_veto, unsat_explanation)``, from one
    reading of its core (the same core :func:`refine` last read: raw
    under :func:`open_session`, so it may name more than a minimal set).

    The veto exists only for a ``provable`` unsat: ``(uid, encoded route
    count)`` of every message whose ``within`` the core names (each at
    the route limit), or of every message when it names none.  The
    explanation labels each core literal: a frozen message as
    ``frozen[uid]``, a message at the route limit as ``routes[uid]<=K``.
    It is None when the check assumed nothing but ``within`` literals:
    the core then names only messages at their route limit, which a
    single-stage run reports as its veto.
    """
    within = _within_literals(encoder)
    core = outcome.unsat_core
    veto = None
    if provable:
        named = {within[lit] for lit in core or () if lit in within}
        veto = tuple(sorted((uid, len(plan.selectors))
                            for uid, plan in encoder.plans.items()
                            if not named or uid in named))
    if core is None or all(lit in within for lit in outcome.assumptions):
        return veto, None
    frozen = ledger.uid_by_guard if ledger else {}
    labels: List[str] = []
    for expr in core:
        if expr in frozen:
            labels.append(f"frozen[{frozen[expr]}]")
        elif expr in within:
            uid = within[expr]
            labels.append(
                f"routes[{uid}]<={len(encoder.plans[uid].selectors)}")
        else:
            labels.append(repr(expr))
    return veto, labels
