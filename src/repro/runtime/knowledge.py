"""Producing and policing shared knowledge: the export, the gate, the pool.

What one solve learns can seed another — across the strategies of a
portfolio race (through the parent-side :class:`KnowledgePool`) and
across requests of the service (through
:class:`repro.service.cache.KnowledgeCache`).  Both carry it as one
:class:`~repro.core.seeding.Knowledge` value.  This module is the
producing side both schedulers share: the one exporter a worker runs
(:func:`export_knowledge`), the export caps, the gate every pipe frame
and cache file passes before anything is imported
(:func:`validate_knowledge`) — and the pool itself.  The consuming side
(how ``core.solve`` applies a seed) and the soundness argument for
clauses and vetoes live in :mod:`repro.core.seeding`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from ..core.seeding import Knowledge, SeedKnowledge, StrategySignature
from ..core.solution import parse_rational
from ..fieldcheck import check_fields
from ..smt.terms import Atom, BoolExpr, BoolVar

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


def export_knowledge(options, engine, route_veto=None,
                     midcheck: bool = False) -> Knowledge:
    """What a run under ``options`` hands on: one :class:`Knowledge`.

    Clauses come from single-stage runs only (an incremental worker's
    database mixes in stage-freeze consequences; see
    :mod:`repro.core.seeding`), but from any point of the solve:
    learned clauses and level-0 units are entailed by the asserted
    formula however (or whether) the check ends.  ``route_veto`` is a
    provable unsat's ``SynthesisResult.route_veto``; ``midcheck`` tags
    a flush from a restart boundary.  *When* to export is the caller's
    rule: the race exports at restart boundaries and on ``unsat`` (a
    sat ends the race, a killed worker never returns), the service on
    every verdict (its cache outlives sat results).
    """
    clauses = exportable_clauses(engine) if options.stages == 1 else ()
    return Knowledge(options.signature, clauses=clauses,
                     route_veto=tuple(route_veto or ()), midcheck=midcheck)


# ---------------------------------------------------------------------------
# Pool-boundary validation (quarantine)
# ---------------------------------------------------------------------------


def _rational(value) -> bool:
    try:
        parse_rational(value)
    except ValueError:
        return False
    return True


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


def validate_knowledge(knowledge) -> Optional[str]:
    """Why ``knowledge`` must be quarantined, or None when it is sound.

    This is the pool-boundary gate: knowledge arrives unpickled (no
    constructor check ran) over a pipe from workers that may be
    fault-injected, dying mid-``send``, or running a different code
    revision, and from cache files on disk, so *everything* a seeded
    worker would later deserialize is checked here: every field against
    its annotation, literal shapes and rational strings.  A rejected
    value is counted and dropped — it never reaches a seeded run.
    """
    if not isinstance(knowledge, Knowledge):
        return f"not Knowledge: {type(knowledge).__name__}"
    try:
        check_fields(knowledge)
        check_fields(knowledge.signature)
    except ValueError as exc:
        return str(exc)
    for clause in knowledge.clauses:
        if not clause or not all(map(_valid_literal, clause)):
            return f"malformed clause {clause!r:.60}"
    if any(limit < 0 for _, limit in knowledge.route_veto):
        return f"negative veto limit in {knowledge.route_veto!r:.60}"
    return None


# ---------------------------------------------------------------------------
# Parent-side pool
# ---------------------------------------------------------------------------


class KnowledgePool:
    """Aggregates worker knowledge; seeds restarts and late launches."""

    def __init__(self) -> None:
        # Clauses are pooled (and capped at MAX_CLAUSES_PER_SOURCE) per
        # exporting strategy *signature*: strategies with identical
        # options — including a strategy's own restart attempts — share
        # one insertion-ordered dedup bucket.
        self._clauses: Dict[StrategySignature, Dict[Tuple, None]] = {}
        # veto -> signature of the strategy that proved it.
        self._vetoes: Dict[Tuple, StrategySignature] = {}
        self.counters: Dict[str, int] = {
            "clauses_pooled": 0,
            "midcheck_clauses_pooled": 0,
            "vetoes_pooled": 0,
            "seeds_served": 0,
            "quarantined_artifacts": 0,
        }

    def absorb(self, knowledge) -> bool:
        """Fold one worker's :class:`Knowledge` into the pool.

        Every value passes :func:`validate_knowledge` first; a malformed
        or fault-injected one is *quarantined* — counted in
        ``quarantined_artifacts`` and dropped, never raised into the
        race and never imported by a seeded worker.  Returns whether it
        was accepted.
        """
        if validate_knowledge(knowledge) is not None:
            self.counters["quarantined_artifacts"] += 1
            return False
        sig = knowledge.signature
        if knowledge.clauses:
            bucket = self._clauses.setdefault(sig, {})
            fresh = 0
            for clause in knowledge.clauses:
                if (clause not in bucket
                        and len(bucket) < MAX_CLAUSES_PER_SOURCE):
                    bucket[clause] = None
                    fresh += 1
            self.counters["clauses_pooled"] += fresh
            if fresh and knowledge.midcheck:
                self.counters["midcheck_clauses_pooled"] += fresh
        veto = knowledge.route_veto
        if veto and veto not in self._vetoes:
            self._vetoes[veto] = sig
            self.counters["vetoes_pooled"] += 1
        return True

    def seed_for(self, options) -> SeedKnowledge:
        """The seed for an attempt about to run ``options``: every
        compatible clause bucket in insertion order, then every
        compatible veto (empty when there is nothing to hand on)."""
        target = options.signature
        seed = tuple(
            Knowledge(sig, clauses=tuple(bucket))
            for sig, bucket in self._clauses.items()
            if bucket and sig.compatible(target)
        ) + tuple(
            Knowledge(sig, route_veto=veto)
            for veto, sig in self._vetoes.items()
            if sig.compatible(target)
        )
        if seed:
            self.counters["seeds_served"] += 1
        return seed

    def seeded_options(self, options):
        """``options`` with this pool's current seed attached (or as-is)."""
        seed = self.seed_for(options)
        if not seed:
            return options
        return replace(options, seed_knowledge=seed)

    @property
    def statistics(self) -> Dict[str, int]:
        return dict(self.counters)
