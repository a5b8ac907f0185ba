"""Cross-worker learned-information sharing for portfolio races.

Portfolio workers solve *related but different* formulas (each strategy
restricts routes and/or stages its own way), so naive clause exchange is
unsound.  This module defines the three artifact kinds that ARE sound to
exchange, the parent-side :class:`KnowledgePool` that aggregates them,
and the :class:`SeedKnowledge` bundle a (re)launched worker consumes via
``SynthesisOptions.seed_knowledge``.

Artifact kinds and their soundness arguments
--------------------------------------------

The key structural fact: route candidates are enumerated shortest-first
and deterministically, so a ``routes-K`` strategy's candidate list per
message is a *prefix* of any ``routes-K'`` (K' >= K) or monolithic list.
Writing ``F_K`` for the single-stage formula under route limit ``K`` and
``Restr_K`` for "every message selects within its first K candidates",
the encodings satisfy ``F_K  ==  F_K' /\\ Restr_K`` (for K <= K'): every
constraint of ``F_K`` is literally present in ``F_K'``, and the stronger
attainment disjunctions of ``F_K`` follow from ``Restr_K`` plus the
one-hot selection clauses.  Three consequences:

* **Learned clauses** (from single-stage strategies only): a clause ``C``
  learned under ``F_K`` satisfies ``F_K' |= C \\/ ~Restr_K``.  Import
  into a *more* restricted sibling (K' <= K) is verbatim; import into a
  *less* restricted single-stage sibling pads ``C`` with the relaxation
  literals ``~Restr_K`` = the beyond-K selectors of every message.
  Incremental (``stages > 1``) strategies never export clauses: their
  databases contain consequences of stage freezes and per-stage
  stability over message *subsets*, which sibling formulas do not entail.
  Exported literals are further restricted to the *schedule vocabulary*
  (route selectors and release-time atoms), whose interned names mean
  the same thing in every worker.
* **Route vetoes**: a single-stage strategy that proves ``unsat`` has
  shown ``shared constraints /\\ Restr_K`` infeasible; every sibling may
  therefore assert the blocking clause "some vetoed message selects a
  route beyond its recorded candidate count".  In siblings with no such
  route the clause loses disjuncts — down to the empty (false) clause
  for strictly more restricted siblings, which are thereby proven unsat
  without search.
* **Stage prefixes**: schedules frozen by an incremental strategy's
  completed stages.  These are replayed as *assumption probes* only
  (complete fallback to the unrestricted solve), which is sound for any
  recipient; the pool hands them to same-signature relaunches, where a
  hit lets a restarted attempt fast-forward through already-solved
  stages instead of re-searching them.

Clauses imported into an incremental recipient deserve one more note:
they are entailed properties of every *complete valid schedule*, so they
only prune stage prefixes that could never extend to a full solution —
but pruning can steer the (incomplete) heuristic to different freezes,
so a heuristic's own sat/unsat outcome may shift.  That is safe because
heuristic verdicts are never promoted to race verdicts (see
``PortfolioResult.verdict_by``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..runtime.frames import (ARTIFACT_CLAUSES, ARTIFACT_KINDS,
                              ARTIFACT_PREFIX, ARTIFACT_VETO)
from ..smt.terms import Atom, BoolExpr, BoolVar, Or

#: Export caps: clause literal count, learning-time LBD, clauses per
#: exporting strategy.  Small on purpose — shared clauses are hints, and
#: every import is replayed by each seeded worker.
MAX_CLAUSE_SIZE = 8
MAX_CLAUSE_LBD = 8
MAX_CLAUSES_PER_SOURCE = 256

_INF = float("inf")


def _limit(routes: Optional[int]) -> float:
    """Route limit as a comparable number (None = unrestricted)."""
    return _INF if routes is None else routes


@dataclass(frozen=True)
class StrategySignature:
    """The encoding-relevant fingerprint of a strategy's options."""

    mode: str
    routes: Optional[int]
    stages: int
    path_cutoff: Optional[int]
    repair: bool

    def compatible(self, other: "StrategySignature") -> bool:
        """Same constraint semantics and route enumeration?"""
        return self.mode == other.mode and self.path_cutoff == other.path_cutoff


def signature_of(options) -> StrategySignature:
    """Signature of a :class:`~repro.core.SynthesisOptions`."""
    return StrategySignature(
        mode=options.mode,
        routes=options.routes,
        stages=options.stages,
        path_cutoff=options.path_cutoff,
        repair=options.repair,
    )


def schedule_vocabulary(expr: BoolExpr) -> bool:
    """Is ``expr`` part of the cross-strategy stable vocabulary?

    Route selectors (``<ns>/R[uid][r]`` Booleans) and atoms over release
    times (``<ns>/g[uid][node]`` reals) name the same decision in every
    strategy's encoding; everything else (stage-tagged stability bounds,
    freeze guards, scope selectors) is strategy- or solver-local.
    """
    if isinstance(expr, BoolVar):
        return "/R[" in expr.name and "!" not in expr.name
    if isinstance(expr, Atom):
        return all("/g[" in v.name for v, _ in expr.coeffs)
    return False


# ---------------------------------------------------------------------------
# Seed bundle (travels into workers inside SynthesisOptions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseBatch:
    """Learned clauses from one exporting strategy."""

    source_routes: Optional[int]            # exporter's route limit
    clauses: Tuple[Tuple, ...]              # tuples of serialized literals


@dataclass(frozen=True)
class RouteVeto:
    """A proven-doomed route-subset selection.

    ``limits`` maps message uid -> number of candidate routes the proving
    strategy allowed it; the conjunction "each listed message within its
    first ``n`` candidates" is infeasible together with the shared
    constraints.
    """

    limits: Tuple[Tuple[str, int], ...]
    source: str                             # proving strategy, for reports


@dataclass(frozen=True)
class StagePrefix:
    """Frozen schedules of an incremental strategy's completed stages.

    ``messages`` entries are ``(uid, route nodes, ((switch, gamma), ...))``
    with exact rationals rendered as strings.
    """

    signature: StrategySignature
    stages_completed: int
    messages: Tuple[Tuple[str, Tuple[str, ...], Tuple[Tuple[str, str], ...]], ...]


@dataclass(frozen=True)
class SeedKnowledge:
    """Everything the pool hands a newly launched attempt."""

    clause_batches: Tuple[ClauseBatch, ...] = ()
    route_vetoes: Tuple[RouteVeto, ...] = ()
    stage_prefix: Optional[StagePrefix] = None

    def __bool__(self) -> bool:
        return bool(self.clause_batches or self.route_vetoes
                    or self.stage_prefix)


# ---------------------------------------------------------------------------
# Worker-side export
# ---------------------------------------------------------------------------


def prefix_artifact(options, stage_idx: int, fixed: Sequence) -> dict:
    """Serialize the cumulative frozen prefix after ``stage_idx``."""
    messages = tuple(
        (
            fm.uid,
            tuple(fm.route),
            tuple(sorted((node, str(value)) for node, value in fm.gammas.items())),
        )
        for fm in fixed
    )
    return {
        "kind": ARTIFACT_PREFIX,
        "signature": signature_of(options),
        "stages_completed": stage_idx + 1,
        "messages": messages,
    }


def _exportable_clauses(engine) -> Tuple[Tuple, ...]:
    """Units first (the strongest facts), then ranked learned clauses.

    Both exports are entailed by the asserted formulas alone: learned
    clauses by CDCL invariant (assumptions enter analysis as ordinary
    literals, never as facts), level-0 trail literals because they are
    propagated before any assumption decision.  So this is safe to call
    mid-check, not just after a verdict.
    """
    units: List[Tuple] = []
    if hasattr(engine, "export_unit_clauses"):
        units = list(engine.export_unit_clauses(
            max_count=MAX_CLAUSES_PER_SOURCE,
            vocabulary=schedule_vocabulary,
        ))
    learned = engine.export_learned_clauses(
        max_size=MAX_CLAUSE_SIZE,
        max_lbd=MAX_CLAUSE_LBD,
        max_count=MAX_CLAUSES_PER_SOURCE,
        vocabulary=schedule_vocabulary,
    )
    return tuple(units + list(learned))[:MAX_CLAUSES_PER_SOURCE]


def terminal_artifacts(options, result, engine) -> List[dict]:
    """Artifacts a worker ships after its solve returns.

    Only single-stage strategies export here (see the module docstring
    for why incremental clause databases stay private), and only on
    ``unsat`` — a sat result ends the race, and timeouts never return.
    """
    artifacts: List[dict] = []
    if options.stages != 1 or result.status != "unsat":
        return artifacts
    sig = signature_of(options)
    if result.route_veto:
        artifacts.append({
            "kind": ARTIFACT_VETO,
            "signature": sig,
            "limits": tuple(result.route_veto),
        })
    if engine is not None and hasattr(engine, "export_learned_clauses"):
        clauses = _exportable_clauses(engine)
        if clauses:
            artifacts.append({
                "kind": ARTIFACT_CLAUSES,
                "signature": sig,
                "clauses": clauses,
            })
    return artifacts


def restart_artifacts(options, engine) -> List[dict]:
    """Artifacts flushed from *inside* a check, at a restart boundary.

    This is how a worker that never returns from ``check()`` — killed by
    a race verdict, a timeout, or a ``max_conflicts`` budget — still
    contributes: the engine's ``on_restart`` hook calls this with the
    trail backjumped to the assumption level and streams the result to
    the parent pool.  The same single-stage-only rule as
    :func:`terminal_artifacts` applies (an incremental worker's database
    mixes in freeze consequences); the verdict restriction does not —
    learned clauses and level-0 units are sound regardless of how (or
    whether) the check ends.  Artifacts are tagged ``origin: mid-check``
    so the pool can account for them separately.
    """
    if options.stages != 1 or engine is None:
        return []
    if not hasattr(engine, "export_learned_clauses"):
        return []
    clauses = _exportable_clauses(engine)
    if not clauses:
        return []
    return [{
        "kind": ARTIFACT_CLAUSES,
        "signature": signature_of(options),
        "clauses": clauses,
        "origin": "mid-check",
    }]


# ---------------------------------------------------------------------------
# Pool-boundary validation (artifact quarantine)
# ---------------------------------------------------------------------------


def _valid_literal(lit) -> bool:
    if not isinstance(lit, tuple) or not lit:
        return False
    if lit[0] == "b":
        return len(lit) == 3 and isinstance(lit[1], str)
    if lit[0] == "a":
        return (len(lit) == 5
                and isinstance(lit[1], tuple)
                and all(isinstance(pair, tuple) and len(pair) == 2
                        and isinstance(pair[0], str) and isinstance(pair[1], str)
                        for pair in lit[1])
                and isinstance(lit[2], str))
    return False


def validate_artifact(artifact) -> Optional[str]:
    """Why ``artifact`` must be quarantined, or None when it is sound.

    This is the pool-boundary gate: artifacts arrive over a pipe from
    workers that may be fault-injected, dying mid-``send``, or running
    a different code revision, so *everything* a seeded worker would
    later deserialize is shape-checked here.  A rejected frame is
    counted and dropped — it never reaches the race.
    """
    if not isinstance(artifact, dict):
        return f"not a dict: {type(artifact).__name__}"
    kind = artifact.get("kind")
    if kind not in ARTIFACT_KINDS:
        return f"unknown artifact kind {kind!r}"
    if not isinstance(artifact.get("signature"), StrategySignature):
        return "missing/invalid strategy signature"
    if kind == ARTIFACT_CLAUSES:
        clauses = artifact.get("clauses")
        if not isinstance(clauses, tuple):
            return "clauses payload is not a tuple"
        for clause in clauses:
            if not isinstance(clause, tuple) or not clause:
                return f"malformed clause {clause!r:.60}"
            if not all(_valid_literal(lit) for lit in clause):
                return f"malformed literal in clause {clause!r:.60}"
    elif kind == ARTIFACT_VETO:
        limits = artifact.get("limits")
        if not isinstance(limits, tuple) or not limits:
            return "veto without limits"
        for entry in limits:
            if (not isinstance(entry, tuple) or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or not isinstance(entry[1], int) or entry[1] < 0):
                return f"malformed veto limit {entry!r:.60}"
    elif kind == ARTIFACT_PREFIX:
        if not isinstance(artifact.get("stages_completed"), int):
            return "prefix without a stage count"
        messages = artifact.get("messages")
        if not isinstance(messages, tuple):
            return "prefix messages payload is not a tuple"
        for msg in messages:
            if (not isinstance(msg, tuple) or len(msg) != 3
                    or not isinstance(msg[0], str)
                    or not isinstance(msg[1], tuple)
                    or not all(isinstance(node, str) for node in msg[1])
                    or not isinstance(msg[2], tuple)
                    or not all(isinstance(g, tuple) and len(g) == 2
                               and isinstance(g[0], str)
                               and isinstance(g[1], str)
                               for g in msg[2])):
                return f"malformed prefix message {msg!r:.60}"
    return None


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------


class KnowledgePool:
    """Aggregates worker artifacts; seeds restarts and late launches."""

    def __init__(self, max_clauses_per_signature: int = MAX_CLAUSES_PER_SOURCE):
        # Clauses are pooled (and capped) per exporting strategy
        # *signature*: strategies with identical options — including a
        # strategy's own restart attempts — share one dedup bucket.
        self.max_clauses_per_signature = max_clauses_per_signature
        # signature -> insertion-ordered clause dedup set.
        self._clauses: Dict[StrategySignature, Dict[Tuple, None]] = {}
        self._vetoes: Dict[Tuple, RouteVeto] = {}
        self._veto_sigs: Dict[Tuple, StrategySignature] = {}
        self._prefixes: Dict[StrategySignature, StagePrefix] = {}
        self.counters: Dict[str, int] = {
            "clauses_pooled": 0,
            "midcheck_clauses_pooled": 0,
            "vetoes_pooled": 0,
            "prefixes_pooled": 0,
            "seeds_served": 0,
            "quarantined_artifacts": 0,
        }

    def absorb(self, artifact: Optional[dict], source: str = "") -> bool:
        """Fold one worker artifact into the pool.

        Every frame passes :func:`validate_artifact` first; a malformed
        or fault-injected frame is *quarantined* — counted in
        ``quarantined_artifacts`` and dropped, never raised into the
        race and never imported by a seeded worker.  Returns whether the
        artifact was accepted.
        """
        if validate_artifact(artifact) is not None:
            self.counters["quarantined_artifacts"] += 1
            return False
        kind = artifact.get("kind")
        sig = artifact.get("signature")
        if kind == ARTIFACT_CLAUSES:
            bucket = self._clauses.setdefault(sig, {})
            fresh = 0
            for clause in artifact.get("clauses", ()):
                if clause not in bucket and (
                    len(bucket) < self.max_clauses_per_signature
                ):
                    bucket[clause] = None
                    fresh += 1
            self.counters["clauses_pooled"] += fresh
            if fresh and artifact.get("origin") == "mid-check":
                self.counters["midcheck_clauses_pooled"] += fresh
        elif kind == ARTIFACT_VETO:
            limits = tuple(artifact.get("limits", ()))
            if limits and limits not in self._vetoes:
                self._vetoes[limits] = RouteVeto(limits=limits, source=source)
                self._veto_sigs[limits] = sig
                self.counters["vetoes_pooled"] += 1
        elif kind == ARTIFACT_PREFIX:
            best = self._prefixes.get(sig)
            stages = artifact.get("stages_completed", 0)
            if best is None or stages > best.stages_completed:
                self._prefixes[sig] = StagePrefix(
                    signature=sig,
                    stages_completed=stages,
                    messages=tuple(artifact.get("messages", ())),
                )
                self.counters["prefixes_pooled"] += 1
        return True

    def seed_for(self, options) -> Optional[SeedKnowledge]:
        """The knowledge bundle for an attempt about to run ``options``."""
        target = signature_of(options)
        batches = tuple(
            ClauseBatch(source_routes=sig.routes, clauses=tuple(bucket))
            for sig, bucket in self._clauses.items()
            if bucket and sig.compatible(target)
        )
        vetoes = tuple(
            veto for limits, veto in self._vetoes.items()
            if self._veto_sigs[limits].compatible(target)
        )
        prefix = self._prefixes.get(target)
        seed = SeedKnowledge(clause_batches=batches, route_vetoes=vetoes,
                             stage_prefix=prefix)
        if not seed:
            return None
        self.counters["seeds_served"] += 1
        return seed

    def seeded_options(self, options):
        """``options`` with this pool's current seed attached (or as-is)."""
        seed = self.seed_for(options)
        if seed is None:
            return options
        return replace(options, seed_knowledge=seed)

    @property
    def statistics(self) -> Dict[str, int]:
        return dict(self.counters)


# ---------------------------------------------------------------------------
# Consumer-side application (called from core.solve)
# ---------------------------------------------------------------------------


def import_presolve_clauses(session, options) -> int:
    """Install clause batches that need no padding (before any encoding).

    Verbatim import is sound exactly when this strategy is at most as
    route-permissive as the exporter (``target K <= source K``); see the
    module docstring.  Backends without a native engine skip the import.
    """
    seed = options.seed_knowledge
    engine = getattr(session.backend, "engine", None)
    if seed is None or engine is None or not hasattr(engine, "import_clauses"):
        return 0
    imported = 0
    for batch in seed.clause_batches:
        if _limit(options.routes) <= _limit(batch.source_routes):
            imported += engine.import_clauses(batch.clauses)
    return imported


def import_padded_clauses(session, encoder, options) -> int:
    """Install batches from *stricter* exporters, padded for soundness.

    Requires the full message set to be encoded (single-stage recipients
    only — the caller guards), because the relaxation pad ranges over
    every message's beyond-``source_routes`` selectors.
    """
    seed = options.seed_knowledge
    engine = getattr(session.backend, "engine", None)
    if seed is None or engine is None or not hasattr(engine, "import_clauses"):
        return 0
    imported = 0
    for batch in seed.clause_batches:
        src = _limit(batch.source_routes)
        if _limit(options.routes) <= src:
            continue  # already imported verbatim by import_presolve_clauses
        pad = [
            sel
            for plan in encoder.plans.values()
            for sel in plan.selectors[int(src):]
        ]
        imported += engine.import_clauses(batch.clauses, pad=pad)
    return imported


def apply_route_vetoes(session, encoder, options, applied: Set[Tuple]) -> int:
    """Assert every veto whose messages are all encoded already.

    The veto clause "some listed message beyond its recorded candidate
    count" may only be asserted once all its disjunct sources exist;
    ``applied`` tracks vetoes asserted in earlier stages.  An empty
    clause (no listed message has extra routes here) is the entailed
    *false* — this strategy is doomed and the solver reports unsat
    without search.
    """
    seed = options.seed_knowledge
    if seed is None:
        return 0
    count = 0
    for veto in seed.route_vetoes:
        if veto.limits in applied:
            continue
        if not all(uid in encoder.plans for uid, _ in veto.limits):
            continue
        escape = [
            sel
            for uid, n in veto.limits
            for sel in encoder.plans[uid].selectors[n:]
        ]
        session.add(Or(escape))
        applied.add(veto.limits)
        count += 1
    return count


def prefix_assumptions(options, new_plans) -> List[BoolExpr]:
    """Assumption literals replaying a shared prefix onto this stage.

    For each stage message recorded in the prefix: the selector of the
    recorded route (located by node-list equality, so differing route
    limits cannot misindex) and the recorded release-time equalities.
    Unknown uids or vanished routes are skipped — the probe is a hint.
    """
    seed = options.seed_knowledge
    if seed is None or seed.stage_prefix is None:
        return []
    recorded = {uid: (route, gammas)
                for uid, route, gammas in seed.stage_prefix.messages}
    assumptions: List[BoolExpr] = []
    for plan in new_plans:
        entry = recorded.get(plan.message.uid)
        if entry is None:
            continue
        route, gammas = entry
        try:
            ridx = plan.routes.index(list(route))
        except ValueError:
            continue
        assumptions.append(plan.selectors[ridx])
        for node, value in gammas:
            gamma = plan.gammas.get(node)
            if gamma is not None:
                assumptions.append(gamma == Fraction(value))
    return assumptions
