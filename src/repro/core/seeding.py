"""Which formula a run solves, and what another run may hand it.

One notion of the paper's Sec. V travels outside the solver: *which
formula is solved* — :class:`StrategySignature`, the option fields that
name it.  What one run hands another is phrased over it: a
:class:`Knowledge` value (learned clauses and a route veto, tagged with
the signature they were learned under) is the one shape a race's pipe,
its pool and the service's cache carry.  A seed is a tuple of them
(:data:`SeedKnowledge`); it rides into
:func:`~repro.core.synthesizer.solve` on
``SynthesisOptions.seed_knowledge`` and the two functions at the
bottom of this module apply it inside the stage loop.  Who *produces*
knowledge — the race's workers and pool, the service's workers and
cache — lives above, in :mod:`repro.runtime.knowledge` and
:mod:`repro.service.cache`.

Why sharing across different formulas is sound
----------------------------------------------

Portfolio workers and cached runs solve *related but different*
problems (each strategy limits routes and/or stages its own way), yet
every single-stage run encodes one formula whatever its route limit:
the lazy formula of :mod:`repro.core.encoding`, where a message has its
shortest route, the routes unsat cores asked for, and a *beyond*
literal.  A route limit K is never a clause, only the assumption
``within`` that stops a message's extension at K routes, and a run's
learned clauses and level-0 units never depend on assumptions (they
enter conflict analysis as decisions, never as facts).  With every
beyond literal free the formula is a relaxation of the all-routes
formula of its mode and ``path_cutoff``, so every clause a single-stage
run exports is entailed by that all-routes formula: its literals are
restricted to the *schedule vocabulary* (route selectors and
release-time atoms, whose interned names mean the same thing in every
worker; a beyond literal's name carries a ``!`` and stays out), and
route indices name the same route in every run, because every candidate
list is a prefix of the ``(hop count, node names)`` order of
:func:`repro.network.paths.yen_routes`.  Such a clause therefore imports
verbatim into any run of a compatible signature, whatever either route
limit.  Incremental (``stages > 1``) strategies never export clauses:
their databases contain consequences of stage freezes and per-stage
stability over message *subsets*, which sibling formulas do not entail.

**Route vetoes.**  A single-stage run that proves ``unsat`` has shown
the all-routes formula infeasible together with the ``within``
assumptions its final core names: messages at their route limit K.
Every sibling may therefore assert the blocking clause "some vetoed
message takes route K or a later one", its selectors from K on or its
beyond literal.  :func:`apply_route_vetoes` first encodes routes up to K
so that the escape is exact.  In a sibling whose own limit is below K
the beyond literal also covers the routes in between, a weaker clause
that stays sound; its ``within`` assumptions refute it at once, so a
strictly more restricted sibling inherits the proof without search.
When the core names no ``within`` the ``unsat`` holds for every route,
and the veto lists every message.

Entries the service cached before route limits became assumptions hold
clauses learned under the eager routes-K formula, entailed only together
with the limit.  The cache serves an entry only to the fingerprint that
wrote it, signature included, so those clauses only ever seed runs that
assume the same limit, where they stay sound.

Clauses imported into an incremental recipient deserve one more note:
they are entailed properties of every *complete valid schedule*, so they
only prune stage prefixes that could never extend to a full solution —
but pruning can steer the (incomplete) heuristic to different freezes,
so a heuristic's own sat/unsat outcome may shift.  That is safe because
heuristic verdicts are never promoted to race verdicts (see
``PortfolioResult.verdict_by``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from ..fieldcheck import check_fields
from ..smt.terms import Or

MODE_STABILITY = "stability"
MODE_DEADLINE = "deadline"
#: The constraint semantics a formula can have (``mode``).
MODE_NAMES = (MODE_STABILITY, MODE_DEADLINE)


@dataclass(frozen=True)
class StrategySignature:
    """The option fields that name the solved formula.

    Everything else in :class:`~repro.core.synthesizer.SynthesisOptions`
    steers the search, not the constraints.  This is the one place those
    fields are listed: ``SynthesisOptions.signature``, the service's
    fingerprints and wire keys, and the knowledge pool's buckets all
    derive from it.  Signatures are also rebuilt from cache files, so the
    constructor checks its fields: a value no ``SynthesisOptions`` can
    hold raises ``ValueError``.
    """

    mode: str = field(metadata={"in": MODE_NAMES})
    routes: Optional[int] = field(metadata={"ge": 1})
    stages: int = field(metadata={"ge": 1})
    path_cutoff: Optional[int] = field(metadata={"ge": 1})
    repair: bool

    def __post_init__(self) -> None:
        check_fields(self)

    def compatible(self, other: "StrategySignature") -> bool:
        """Whether knowledge learned under ``other`` may transfer at all:
        the same constraint semantics (mode) and route enumeration (path
        cutoff)."""
        return (self.mode == other.mode
                and self.path_cutoff == other.path_cutoff)


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
    constraints (empty otherwise; see the module docstring).
    ``midcheck`` marks clauses flushed at a restart boundary rather than
    after a verdict, so the race's pool can count them apart.  A race
    streams it over the pipe, its pool and the service's cache gate it
    with :func:`repro.runtime.knowledge.validate_knowledge`, and a seed
    is a tuple of them.  Falsy when it carries nothing to import.
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
    """Install every seeded clause verbatim (before any encoding); see
    the module docstring for why no direction or padding is needed."""
    engine = _clause_importer(session)
    if engine is None:
        return 0
    return sum(engine.import_clauses(k.clauses)
               for k in options.seed_knowledge if k.clauses)


def apply_route_vetoes(session, encoder, options, applied: Set[Tuple]) -> int:
    """Assert every veto whose messages are all encoded already.

    The veto clause "some listed message beyond its recorded candidate
    count" may only be asserted once all its disjunct sources exist;
    ``applied`` tracks vetoes asserted in earlier stages.  An empty
    clause (no listed message has a route past its count) is the
    entailed *false* — this strategy is doomed and the solver reports
    unsat without search.
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
            # Encode up to route n first, so that the escape is exactly
            # "route n or later" and a veto that leaves a message no
            # route escapes nothing.  Below n routes (this run's own
            # limit) the beyond literal also covers the routes between.
            encoder.reach_route(uid, n)
            plan = encoder.plans[uid]
            escape.extend(plan.selectors[n:])
            if plan.beyond is not None:
                escape.append(plan.beyond)
        session.add(Or(escape))
        applied.add(veto)
        count += 1
    return count
