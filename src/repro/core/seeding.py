"""Which formula a run solves, and what another run may hand it.

One notion of the paper's Sec. V travels outside the solver: *which
formula is solved* — :class:`StrategySignature`, the option fields that
name it.  What one run hands another is phrased over it: a
:class:`Knowledge` value (learned clauses and a route veto, tagged with
the signature they were learned under) is the one shape a race's pipe,
its pool and the service's cache carry.  A seed is a tuple of them
(:data:`SeedKnowledge`); it rides into
:func:`~repro.core.synthesizer.solve` on
``SynthesisOptions.seed_knowledge`` and the three functions at the
bottom of this module apply it inside the stage loop.  Who *produces*
knowledge — the race's workers and pool, the service's workers and
cache — lives above, in :mod:`repro.runtime.knowledge` and
:mod:`repro.service.cache`.

Why sharing across different formulas is sound
----------------------------------------------

Portfolio workers and cached runs solve *related but different*
formulas (each strategy restricts routes and/or stages its own way), so
naive clause exchange is unsound.  The key structural fact, owned by
:func:`repro.network.paths.yen_routes`: every candidate list is
ordered by ``(hop count, node names)`` whatever the route limit, so a
``routes-K`` strategy's candidate list per message is a *prefix* of any
``routes-K'`` (K' >= K) or monolithic list, and a route index names the
same route in every worker.  Every index-based use below — the pad
``selectors[K:]``, the veto escape ``selectors[n:]`` — and the driver's
shortest-route probe (``selectors[0]``) rest on it.  Writing ``F_K`` for
the single-stage formula under route limit ``K`` and ``Restr_K`` for "every
message selects within its first K candidates", the encodings satisfy
``F_K  ==  F_K' /\\ Restr_K`` (for K <= K'): every constraint of ``F_K``
is literally present in ``F_K'``, and the stronger attainment
disjunctions of ``F_K`` follow from ``Restr_K`` plus the one-hot
selection clauses.  Two consequences:

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

**Complete mode** (``routes=None``) encodes routes lazily
(:mod:`repro.core.encoding`): a message has its first ``c`` routes
encoded plus a *beyond* literal, "a route from index ``c`` on".  So
"route ``K`` or later" is ``selectors[K:]`` *or the beyond literal*,
and both index-based uses above add it: the pad of
:func:`import_padded_clauses` (when ``c < K`` the literal also covers
indices ``c..K-1``, a weaker pad that stays sound) and the escape of
:func:`apply_route_vetoes`, which first encodes routes up to ``K`` so
that its escape is exact and a veto that leaves a message no route
escapes nothing.  Without the literal a padded clause would claim that
no route beyond the encoded ones exists, and import a wrong ``unsat``.
Conversely no clause mentioning a beyond literal is ever exported: its
name carries a ``!``, outside the schedule vocabulary.

Clauses imported into an incremental recipient deserve one more note:
they are entailed properties of every *complete valid schedule*, so they
only prune stage prefixes that could never extend to a full solution —
but pruning can steer the (incomplete) heuristic to different freezes,
so a heuristic's own sat/unsat outcome may shift.  That is safe because
heuristic verdicts are never promoted to race verdicts (see
``PortfolioResult.verdict_by``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Set, Tuple

from ..smt.terms import Or

_INF = float("inf")

#: What each annotation of :class:`StrategySignature` accepts.
_FIELD_TYPES = {"str": str, "int": int, "bool": bool,
                "Optional[int]": (int, type(None))}


@dataclass(frozen=True)
class StrategySignature:
    """The option fields that name the solved formula.

    Everything else in :class:`~repro.core.synthesizer.SynthesisOptions`
    steers the search, not the constraints.  This is the one place those
    fields are listed: ``SynthesisOptions.signature``, the service's
    fingerprints and wire keys, and the knowledge pool's buckets all
    derive from it.  Signatures are also rebuilt from cache files, so the
    constructor validates: a wrong type raises ``ValueError``.
    """

    mode: str
    routes: Optional[int]
    stages: int
    path_cutoff: Optional[int]
    repair: bool

    def __post_init__(self) -> None:
        # Any truthy ``repair`` names the same formula: one canonical form.
        object.__setattr__(self, "repair", bool(self.repair))
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(
                    f"signature field {f.name}={value!r} is not {f.type}")

    def compatible(self, other: "StrategySignature") -> bool:
        """Whether knowledge learned under ``other`` may transfer at all:
        the same constraint semantics (mode) and route enumeration (path
        cutoff)."""
        return (self.mode == other.mode
                and self.path_cutoff == other.path_cutoff)


def _limit(routes: Optional[int]) -> float:
    """Route limit as a comparable number (None = unrestricted)."""
    return _INF if routes is None else routes


# ---------------------------------------------------------------------------
# Handed-on knowledge (travels into workers inside SynthesisOptions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Knowledge:
    """What one run hands on: the one shape of shared knowledge.

    ``signature`` names the formula it was learned under; ``clauses``
    are schedule-vocabulary clauses (tuples of serialized literals)
    entailed by that formula; ``route_veto`` maps message uid -> number
    of candidate routes the run allowed it, when a single-stage run
    proved that selection infeasible together with the shared
    constraints (empty otherwise).  ``midcheck`` marks clauses flushed
    at a restart boundary rather than after a verdict, so the race's
    pool can count them apart.  A race streams it over the pipe, its
    pool and the service's cache gate it with
    :func:`repro.runtime.knowledge.validate_knowledge`, and a seed is a
    tuple of them.  Falsy when it carries nothing to import.
    """

    signature: StrategySignature
    clauses: Tuple[Tuple, ...] = ()
    route_veto: Tuple[Tuple[str, int], ...] = ()
    midcheck: bool = False

    def __bool__(self) -> bool:
        return bool(self.clauses or self.route_veto)


#: Everything a pool or cache hands a newly launched attempt, in import
#: order: clauses are imported, and vetoes applied, in tuple order.
SeedKnowledge = Tuple[Knowledge, ...]


# ---------------------------------------------------------------------------
# Application (called from the stage loop of core.solve)
# ---------------------------------------------------------------------------


def _clause_importer(session):
    """The session's native engine, or None when the backend has none
    (other backends skip clause imports)."""
    engine = getattr(session.backend, "engine", None)
    return engine if hasattr(engine, "import_clauses") else None


def import_presolve_clauses(session, options) -> int:
    """Install seeded clauses that need no padding (before any encoding).

    Verbatim import is sound exactly when this strategy is at most as
    route-permissive as the exporter (``target K <= source K``); see the
    module docstring.
    """
    engine = _clause_importer(session)
    if engine is None:
        return 0
    return sum(
        engine.import_clauses(k.clauses)
        for k in options.seed_knowledge
        if k.clauses and _limit(options.routes) <= _limit(k.signature.routes))


def _from_route(plan, n: int) -> List:
    """Literals whose disjunction holds whenever ``plan``'s message takes
    route ``n`` or a later one: the encoded selectors from ``n`` on,
    plus complete mode's beyond literal.  With fewer than ``n`` routes
    encoded that literal also covers indices below ``n``: a weaker pad,
    still sound."""
    literals = list(plan.selectors[n:])
    if plan.beyond is not None:
        literals.append(plan.beyond)
    return literals


def import_padded_clauses(session, encoder, options) -> int:
    """Install clauses from *stricter* exporters, padded for soundness.

    Requires the full message set to be encoded (single-stage recipients
    only — the caller guards), because the relaxation pad ranges over
    every message's selectors beyond the exporter's route limit.
    """
    engine = _clause_importer(session)
    if engine is None:
        return 0
    imported = 0
    for k in options.seed_knowledge:
        src = _limit(k.signature.routes)
        if not k.clauses or _limit(options.routes) <= src:
            continue  # already imported verbatim by import_presolve_clauses
        pad = [
            sel
            for plan in encoder.plans.values()
            for sel in _from_route(plan, int(src))
        ]
        imported += engine.import_clauses(k.clauses, pad=pad)
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
    count = 0
    for k in options.seed_knowledge:
        veto = k.route_veto
        if not veto or veto in applied:
            continue
        if not all(uid in encoder.plans for uid, _ in veto):
            continue
        escape = []
        for uid, n in veto:
            # In complete mode, encode up to route n first, so that the
            # escape is exactly "route n or later" and a veto that
            # leaves a message no route escapes nothing.
            encoder.reach_route(uid, n)
            escape.extend(_from_route(encoder.plans[uid], n))
        session.add(Or(escape))
        applied.add(veto)
        count += 1
    return count
