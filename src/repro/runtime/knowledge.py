"""Producing and policing shared knowledge: artifacts, the pool, the gate.

What one solve learns can seed another — across the strategies of a
portfolio race (through the parent-side :class:`KnowledgePool`) and
across requests of the service (through
:class:`repro.service.cache.KnowledgeCache`).  This module is the
producing side both schedulers share: the artifact builders a worker
runs at restart boundaries and verdicts (:func:`restart_artifacts`,
:func:`terminal_artifacts`), the export caps, the gate every pipe frame
and cache file passes before anything is imported
(:func:`validate_artifact`) — and the pool itself.  The consuming side
(the :class:`~repro.core.seeding.SeedKnowledge` bundle and how
``core.solve`` applies it) and the soundness argument for each artifact
kind live in :mod:`repro.core.seeding`.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..core.seeding import (ClauseBatch, RouteVeto, SeedKnowledge,
                            StrategySignature)
from ..smt.terms import Atom, BoolExpr, BoolVar
from .frames import ARTIFACT_CLAUSES, ARTIFACT_KINDS, ARTIFACT_VETO

#: Export caps: clause literal count, learning-time LBD, clauses per
#: exporting strategy (and per pool bucket).  Small on purpose — shared
#: clauses are hints, and every import is replayed by each seeded worker.
MAX_CLAUSE_SIZE = 8
MAX_CLAUSE_LBD = 8
MAX_CLAUSES_PER_SOURCE = 256


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
# Worker-side export
# ---------------------------------------------------------------------------


def exportable_clauses(engine) -> Tuple[Tuple, ...]:
    """Units first (the strongest facts), then ranked learned clauses.

    Both exports are entailed by the asserted formulas alone: learned
    clauses by CDCL invariant (assumptions enter analysis as ordinary
    literals, never as facts), level-0 trail literals because they are
    propagated before any assumption decision.  So this is safe to call
    mid-check, not just after a verdict.
    """
    units = engine.export_unit_clauses(
        max_count=MAX_CLAUSES_PER_SOURCE,
        vocabulary=schedule_vocabulary,
    )
    learned = engine.export_learned_clauses(
        max_size=MAX_CLAUSE_SIZE,
        max_lbd=MAX_CLAUSE_LBD,
        max_count=MAX_CLAUSES_PER_SOURCE,
        vocabulary=schedule_vocabulary,
    )
    return tuple(units + learned)[:MAX_CLAUSES_PER_SOURCE]


def terminal_artifacts(options, result, engine) -> List[dict]:
    """Artifacts a worker ships after its solve returns.

    Only single-stage strategies export here (see
    :mod:`repro.core.seeding` for why incremental clause databases stay
    private), and only on ``unsat`` — a sat result ends the race, and
    timeouts never return.
    """
    artifacts: List[dict] = []
    if options.stages != 1 or result.status != "unsat":
        return artifacts
    sig = options.signature
    if result.route_veto:
        artifacts.append({
            "kind": ARTIFACT_VETO,
            "signature": sig,
            "limits": tuple(result.route_veto),
        })
    if engine is not None:
        clauses = exportable_clauses(engine)
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
    clauses = exportable_clauses(engine)
    if not clauses:
        return []
    return [{
        "kind": ARTIFACT_CLAUSES,
        "signature": options.signature,
        "clauses": clauses,
        "origin": "mid-check",
    }]


# ---------------------------------------------------------------------------
# Pool-boundary validation (artifact quarantine)
# ---------------------------------------------------------------------------


#: What ``str(Fraction)`` emits.  Every rational string a seeded run
#: parses is matched against it, so a value no ``Fraction`` accepts is
#: quarantined here instead of raising inside the solve it seeds.
_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _rational(value) -> bool:
    return isinstance(value, str) and _RATIONAL.fullmatch(value) is not None


def _valid_literal(lit) -> bool:
    if not isinstance(lit, tuple) or not lit:
        return False
    if lit[0] == "b":
        return len(lit) == 3 and isinstance(lit[1], str)
    if lit[0] == "a":
        return (len(lit) == 5
                and isinstance(lit[1], tuple)
                and all(isinstance(pair, tuple) and len(pair) == 2
                        and isinstance(pair[0], str) and _rational(pair[1])
                        for pair in lit[1])
                and _rational(lit[2]))
    return False


def validate_artifact(artifact) -> Optional[str]:
    """Why ``artifact`` must be quarantined, or None when it is sound.

    This is the pool-boundary gate: artifacts arrive over a pipe from
    workers that may be fault-injected, dying mid-``send``, or running
    a different code revision, so *everything* a seeded worker would
    later deserialize is checked here — shapes, and every rational
    string against what ``str(Fraction)`` emits.  A rejected frame is
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
    return None


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------


class KnowledgePool:
    """Aggregates worker artifacts; seeds restarts and late launches."""

    def __init__(self) -> None:
        # Clauses are pooled (and capped at MAX_CLAUSES_PER_SOURCE) per
        # exporting strategy *signature*: strategies with identical
        # options — including a strategy's own restart attempts — share
        # one insertion-ordered dedup bucket.
        self._clauses: Dict[StrategySignature, Dict[Tuple, None]] = {}
        self._vetoes: Dict[Tuple, RouteVeto] = {}
        self._veto_sigs: Dict[Tuple, StrategySignature] = {}
        self.counters: Dict[str, int] = {
            "clauses_pooled": 0,
            "midcheck_clauses_pooled": 0,
            "vetoes_pooled": 0,
            "seeds_served": 0,
            "quarantined_artifacts": 0,
        }

    def absorb(self, artifact: Optional[dict]) -> bool:
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
                if (clause not in bucket
                        and len(bucket) < MAX_CLAUSES_PER_SOURCE):
                    bucket[clause] = None
                    fresh += 1
            self.counters["clauses_pooled"] += fresh
            if fresh and artifact.get("origin") == "mid-check":
                self.counters["midcheck_clauses_pooled"] += fresh
        elif kind == ARTIFACT_VETO:
            limits = tuple(artifact.get("limits", ()))
            if limits and limits not in self._vetoes:
                self._vetoes[limits] = RouteVeto(limits=limits)
                self._veto_sigs[limits] = sig
                self.counters["vetoes_pooled"] += 1
        return True

    def seed_for(self, options) -> Optional[SeedKnowledge]:
        """The knowledge bundle for an attempt about to run ``options``."""
        target = options.signature
        batches = tuple(
            ClauseBatch(source_routes=sig.routes, clauses=tuple(bucket))
            for sig, bucket in self._clauses.items()
            if bucket and sig.compatible(target)
        )
        vetoes = tuple(
            veto for limits, veto in self._vetoes.items()
            if self._veto_sigs[limits].compatible(target)
        )
        seed = SeedKnowledge(clause_batches=batches, route_vetoes=vetoes)
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
