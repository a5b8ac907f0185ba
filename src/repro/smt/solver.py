"""The native DPLL(T) engine: z3py-flavoured ``SolverEngine`` and ``Model``.

The *public* solving surface is :class:`repro.api.Session` (pluggable
backends, rich outcomes, first-class unsat cores — see ``docs/api.md``);
this module is the engine behind its native backend.

The solver is *incremental*: constraints may be added between ``check()``
calls (learned clauses and theory state carry over), ``push()``/``pop()``
delimit retractable assertion scopes, and ``check()`` accepts assumption
literals that hold for that one call only::

    s.push()
    s.add(x <= 0)
    s.check()                  # under the pushed scope
    s.pop()                    # retract it; learned clauses survive
    s.check(Bool("a"), x >= 5) # one-shot assumptions

Scopes are realized with activation literals (the MiniSat idiom): each
``push()`` allocates a fresh selector, assertions inside the scope are
guarded by it, ``check()`` assumes every live selector, and ``pop()``
permanently asserts its negation so the scope's clauses become vacuous
(a later ``check()`` deletes them from the SAT core) while everything
learned from them remains valid.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import SolverError
from ..sat.literals import is_positive, neg, var_of
from ..sat.solver import SatSolver
from .cnf import CnfConverter
from .terms import (
    Atom,
    BoolConst,
    BoolExpr,
    BoolVar,
    AndExpr,
    LinExpr,
    Not,
    NotExpr,
    OrExpr,
    RealVar,
    deserialize_literal,
    serialize_literal,
)
from .theory import LraTheory

#: Fresh activation-variable names across all engine instances (BoolVar
#: interns by name globally, so scope selectors must never collide).
_SCOPE_IDS = itertools.count()

#: Statistics keys reported per ``check()`` (monotone counters of the SAT
#: core whose per-call delta is meaningful); ``core.solve`` sums the same
#: keys over a run.
CHECK_COUNTERS = (
    "conflicts",
    "decisions",
    "propagations",
    "theory_propagations",
    "restarts",
)

#: Per-check statistics of every engine in this process, in check() order.
#: The benchmark harness (:mod:`repro.eval.bench`) drains this to build a
#: solve trajectory without threading a recorder through the experiment
#: runners.  A bounded ring buffer: processes that never drain (services,
#: portfolio workers) keep only the most recent entries instead of leaking
#: one dict per check() forever.
_CHECK_STATS_CAP = 10_000
_GLOBAL_CHECK_STATS: "deque[Dict[str, object]]" = deque(maxlen=_CHECK_STATS_CAP)


def drain_global_check_stats() -> List[Dict[str, object]]:
    """Return and clear the per-check stats accumulated in this process.

    Besides the monotone counters, every entry carries a ``"backend"``
    tag naming the engine that performed the check, so trajectories can
    attribute work per backend.
    """
    out = list(_GLOBAL_CHECK_STATS)
    _GLOBAL_CHECK_STATS.clear()
    return out


class CheckResult:
    """Tri-state result mirroring z3's ``sat``/``unsat``/``unknown``.

    Compares equal to (and hashes like) the plain strings ``"sat"`` /
    ``"unsat"`` / ``"unknown"``, so reporting code can mix the two freely
    (``outcome.status == "unsat"``, ``{"sat": ...}[result]``) without
    ``str(...)`` round-trips — and results survive pickling across process
    boundaries without breaking identity-based comparisons.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __bool__(self) -> bool:
        return self.name == "sat"

    def __eq__(self, other) -> bool:
        if isinstance(other, CheckResult):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self) -> int:
        return hash(self.name)

    def __reduce__(self):
        return (CheckResult, (self.name,))


sat = CheckResult("sat")
unsat = CheckResult("unsat")
unknown = CheckResult("unknown")


class Model:
    """A satisfying assignment for Booleans and reals."""

    def __init__(self, bools: Dict[BoolVar, bool], reals: Dict[RealVar, Fraction]):
        self._bools = bools
        self._reals = reals

    def value_of(self, var: RealVar) -> Fraction:
        return self._reals.get(var, Fraction(0))

    def __getitem__(self, term):
        if isinstance(term, LinExpr):
            total = term.const
            for v, c in term.coeffs.items():
                total += c * self.value_of(v)
            return total
        if isinstance(term, RealVar):
            return self.value_of(term)
        if isinstance(term, BoolVar):
            return self._bools.get(term, False)
        if isinstance(term, BoolExpr):
            return self.eval_bool(term)
        raise SolverError(f"cannot evaluate {term!r} in a model")

    def eval_bool(self, expr: BoolExpr) -> bool:
        """Evaluate an arbitrary Boolean formula under this model."""
        if isinstance(expr, BoolConst):
            return expr.value
        if isinstance(expr, BoolVar):
            return self._bools.get(expr, False)
        if isinstance(expr, NotExpr):
            return not self.eval_bool(expr.arg)
        if isinstance(expr, AndExpr):
            return all(self.eval_bool(a) for a in expr.args)
        if isinstance(expr, OrExpr):
            return any(self.eval_bool(a) for a in expr.args)
        if isinstance(expr, Atom):
            return expr.evaluate({v: self.value_of(v) for v, _ in expr.coeffs})
        raise SolverError(f"cannot evaluate {expr!r}")

    @property
    def reals(self) -> Dict[RealVar, Fraction]:
        return dict(self._reals)

    @property
    def bools(self) -> Dict[BoolVar, bool]:
        return dict(self._bools)


class SolverEngine:
    """Incremental DPLL(T) solver for QF_LRA + Booleans.

    This is the *native engine* behind the public session API
    (:class:`repro.api.Session` with the ``"native"`` backend).

    ``theory_propagation`` (default on) lets the theory assign implied
    atoms instead of branching on them — the ``theory_propagations``
    statistic counts them; turn it off to A/B the search behaviour (the
    equivalence tests do).

    ``backend_name`` tags this engine's entries in the global per-check
    statistics stream so benchmark trajectories can attribute work per
    backend (see :mod:`repro.eval.bench`).

    ``on_restart`` (also assignable after construction) is called with
    the engine at every SAT-core restart boundary inside ``check()`` —
    the trail is backjumped to the assumption level, so
    :meth:`export_learned_clauses` and :meth:`export_unit_clauses` are
    safe — letting portfolio workers flush knowledge mid-check instead
    of only after a check returns.  ``max_conflicts`` bounds the
    conflicts any single ``check()`` may spend: on exhaustion the check
    answers ``unknown`` (deterministically, after one final
    ``on_restart`` flush).  ``stop`` (a predicate, None by default) ends
    a check the same way once it answers true: the SAT core polls it
    before every decision, in every check and every core-minimization
    probe, so a deadline or a cancel bounds the whole run.
    """

    #: Statistics-stream tag; backends override it per instance.
    backend_name = "native"

    def __init__(self, theory_propagation: bool = True,
                 on_restart=None,
                 max_conflicts: Optional[int] = None) -> None:
        # The SAT core runs theory-free until the first atom registers
        # (CnfConverter attaches the theory then).
        self._theory = LraTheory(propagation=theory_propagation)
        self._sat = SatSolver()
        self._cnf = CnfConverter(self._sat, self._theory)
        self._model: Optional[Model] = None
        # Scope stack: one activation variable per open push().  (The
        # assertion log itself lives in the Session that owns the engine.)
        self._scopes: List[BoolVar] = []
        self._last_check_stats: Dict[str, int] = {}
        # Unsat-core state of the most recent check(), if it failed under
        # assumptions: the scope literals it ran under, the literal ->
        # assumption-expression map, the raw (un-minimized) core literals,
        # and the lazily computed deletion-minimized core.
        self._core_scope_lits: Optional[List[int]] = None
        self._core_by_lit: Dict[int, BoolExpr] = {}
        self._raw_core_lits: List[int] = []
        self._min_core_lits: Optional[List[int]] = None
        self._core_checks = 0
        self._clauses_imported = 0
        #: Mid-check export hook: called with this engine at every SAT
        #: restart (and once on a budget/stop abort).
        self.on_restart = on_restart
        #: Conflict budget per check(); None = unbounded.
        self.max_conflicts = max_conflicts
        #: Abort predicate polled by every SAT solve; None = never.
        self.stop: Optional[Callable[[], bool]] = None

    def _fire_restart(self, _sat: SatSolver) -> None:
        callback = self.on_restart
        if callback is not None:
            callback(self)

    def _sat_solve(self, lits: List[int],
                   max_conflicts: Optional[int] = None) -> Optional[bool]:
        # The SAT core holds the restart hook only while it runs: a bound
        # method left on it would close the loop engine -> SatSolver ->
        # engine, and a finished engine could then be freed only by the
        # cycle collector instead of by reference counting.
        self._sat.on_restart = self._fire_restart
        try:
            return self._sat.solve(lits, max_conflicts=max_conflicts,
                                   stop=self.stop)
        finally:
            self._sat.on_restart = None

    @property
    def statistics(self) -> dict:
        stats = self._sat.statistics
        stats["clauses_imported"] = self._clauses_imported
        return stats

    @property
    def last_check_statistics(self) -> Dict[str, int]:
        """Search-effort counters of the most recent ``check()`` alone."""
        return dict(self._last_check_stats)

    # ------------------------------------------------------------------
    # Incremental interface
    # ------------------------------------------------------------------

    @property
    def num_scopes(self) -> int:
        return len(self._scopes)

    def push(self) -> None:
        """Open a retractable assertion scope."""
        self._scopes.append(BoolVar(f"__scope!{next(_SCOPE_IDS)}"))

    def pop(self, n: int = 1) -> None:
        """Retract the ``n`` innermost scopes and their assertions.

        The scope is disabled for good by asserting the negated
        activation literal at the root; a later check deletes the
        scope's clauses from the SAT core (they are satisfied at level
        0), while clauses *learned* while the scope was live stay and
        remain usable afterwards.
        """
        if n < 0 or n > len(self._scopes):
            raise SolverError(
                f"cannot pop {n} scope(s); {len(self._scopes)} pushed"
            )
        for _ in range(n):
            self._cnf.assert_formula(Not(self._scopes.pop()))
        self._model = None

    def add(self, *exprs: BoolExpr | bool | Iterable) -> None:
        """Assert one or more formulas (lists/tuples are flattened).

        Inside a ``push()`` scope the assertion is guarded by the scope's
        activation literal so a later ``pop()`` can retract it.
        """
        for expr in exprs:
            if isinstance(expr, (list, tuple)):
                self.add(*expr)
                continue
            if isinstance(expr, bool):
                expr = BoolConst(expr)
            if not isinstance(expr, BoolExpr):
                raise SolverError(f"cannot assert non-Boolean {expr!r}")
            if self._scopes:
                self._cnf.assert_guarded(self._scopes[-1], expr)
            else:
                self._cnf.assert_formula(expr)

    def check(self, *assumptions: BoolExpr | bool | Iterable) -> CheckResult:
        """Decide satisfiability of the asserted formulas.

        Optional ``assumptions`` are formulas taken to hold for this call
        only (they are internalized once, then passed to the SAT core as
        assumption literals — nothing to retract afterwards).  When the
        answer is unsat *because of* the assumptions, :meth:`unsat_core`
        returns the responsible subset.  With ``max_conflicts`` or
        ``stop`` set the answer may be ``unknown``: the budget ran out or
        the predicate fired before a verdict, and the solver remains
        usable.
        """
        self._model = None
        self._core_scope_lits = None
        self._core_by_lit = {}
        self._raw_core_lits = []
        self._min_core_lits = None
        scope_lits = [self._cnf.literal_for(act) for act in self._scopes]
        by_lit: Dict[int, BoolExpr] = {}
        self._collect_assumptions(assumptions, by_lit)
        lits = scope_lits + list(by_lit)
        before = self.statistics
        solved = self._sat_solve(lits, self.max_conflicts)
        after = self.statistics
        self._last_check_stats = {
            key: after.get(key, 0) - before.get(key, 0)
            for key in CHECK_COUNTERS
        }
        entry: Dict[str, object] = dict(self._last_check_stats)
        entry["backend"] = self.backend_name
        _GLOBAL_CHECK_STATS.append(entry)  # type: ignore[arg-type]
        if solved is None:
            # Budget/stop abort: no verdict, no model, no core.
            return unknown
        if solved:
            bools = {
                bv: self._sat.model_value(satvar)
                for bv, satvar in self._cnf.bool_vars.items()
            }
            reals = (self._theory.model_reals
                     if self._sat.theory is not None else {})
            self._model = Model(bools, reals)
            return sat
        self._core_scope_lits = scope_lits
        self._core_by_lit = by_lit
        # Scope activation literals are implementation detail: the public
        # core ranges over the caller's assumptions only.
        self._raw_core_lits = [
            l for l in self._sat.failed_assumptions if l in by_lit
        ]
        return unsat

    def _collect_assumptions(self, assumptions, by_lit: Dict[int, BoolExpr]) -> None:
        for a in assumptions:
            if isinstance(a, (list, tuple)):
                self._collect_assumptions(a, by_lit)
                continue
            if isinstance(a, bool):
                a = BoolConst(a)
            if not isinstance(a, BoolExpr):
                raise SolverError(f"cannot assume non-Boolean {a!r}")
            by_lit.setdefault(self._cnf.literal_for(a), a)

    # ------------------------------------------------------------------
    # Unsat cores over assumptions
    # ------------------------------------------------------------------

    @property
    def core_minimization_checks(self) -> int:
        """Extra SAT-core solves spent on deletion-minimizing cores."""
        return self._core_checks

    def unsat_core(self, minimize: bool = True) -> List[BoolExpr]:
        """The failed assumptions of the most recent unsat ``check()``.

        Returns a subset of that check's assumption formulas which is
        already unsatisfiable together with the asserted formulas.  With
        ``minimize=True`` (default) the core is *deletion-minimized*:
        assumption literals are dropped one at a time and kept out
        whenever the remainder is still unsat, so no single removal can
        shrink the result further (unless ``stop`` cuts the pass short;
        the core is then unsat but maybe not minimal).  Minimization
        re-solves under the same scope context as the failing check and
        is cached; call this before further ``add()``/``push()``/``pop()``
        mutations.

        An empty core means the assertions are unsat regardless of the
        assumptions.
        """
        if self._core_scope_lits is None:
            raise SolverError(
                "unsat core is only available after an unsat check()"
            )
        if not minimize:
            return [self._core_by_lit[l] for l in self._raw_core_lits]
        if self._min_core_lits is None:
            self._min_core_lits = self._deletion_minimize(
                self._raw_core_lits, self._core_scope_lits
            )
        return [self._core_by_lit[l] for l in self._min_core_lits]

    def _deletion_minimize(
        self, core: List[int], scope_lits: List[int]
    ) -> List[int]:
        """Drop-one deletion minimization of an assumption core.

        Each unsat probe replaces the core with the probe's own failed
        assumptions (never larger than the trial set), so one pass yields
        a core where every literal is necessary.  A probe that ``stop``
        aborts ends the pass: the core so far is unsat, just not
        necessarily minimal.
        """
        core = list(core)
        i = 0
        while i < len(core):
            trial = core[:i] + core[i + 1:]
            self._core_checks += 1
            solved = self._sat_solve(scope_lits + trial)
            if solved is None:
                break
            if solved:
                i += 1  # core[i] is necessary
            else:
                kept = set(trial)
                core = [
                    l for l in self._sat.failed_assumptions if l in kept
                ]
        return core

    # ------------------------------------------------------------------
    # Learned-clause exchange (portfolio knowledge sharing)
    # ------------------------------------------------------------------

    @property
    def clauses_imported(self) -> int:
        """Clauses installed through :meth:`import_clauses` so far."""
        return self._clauses_imported

    def export_learned_clauses(
        self,
        max_size: int = 8,
        max_lbd: int = 8,
        max_count: int = 256,
        vocabulary=None,
    ):
        """Learned clauses serialized over the stable term vocabulary.

        A clause is exportable when every literal's SAT variable maps back
        to an interned :class:`~repro.smt.terms.BoolVar` or
        :class:`~repro.smt.terms.Atom` (Tseitin definitions and scope
        selectors never export) and, when ``vocabulary`` is given, every
        such term passes it.  Candidates are capped by clause ``max_size``
        and learning-time ``max_lbd``, ranked (LBD, size) ascending, and
        truncated to ``max_count``.  Returns a list of clauses, each a
        tuple of serialized literals (see
        :func:`repro.smt.terms.serialize_literal`).
        """
        ranked = []
        for clause in self._sat.learned_clauses():
            lits = clause.lits
            if len(lits) > max_size or clause.lbd > max_lbd:
                continue
            serialized = []
            for l in lits:
                origin = self._cnf.origin_of(var_of(l))
                if origin is None or (
                    vocabulary is not None and not vocabulary(origin)
                ):
                    serialized = None
                    break
                serialized.append(
                    serialize_literal(origin, negated=not is_positive(l))
                )
            if serialized:
                ranked.append((clause.lbd, len(lits), tuple(serialized)))
        ranked.sort(key=lambda t: (t[0], t[1]))
        return [ser for _, _, ser in ranked[:max_count]]

    def export_unit_clauses(self, max_count: int = 256, vocabulary=None):
        """Root-level facts serialized as unit clauses.

        Unit learned clauses are asserted straight onto the SAT trail at
        decision level 0 and never stored in the learned-clause database,
        so :meth:`export_learned_clauses` cannot see them — yet they are
        the strongest facts a worker derives.  Every level-0 literal is
        entailed by the asserted formulas alone (assumptions live at
        decision levels >= 1), so exporting them follows exactly the
        sharing rules of multi-literal clauses.  Filtering mirrors
        :meth:`export_learned_clauses`: only literals whose SAT variable
        maps back to an interned term that passes ``vocabulary`` export.
        Returns a list of 1-tuples of serialized literals, importable by
        :meth:`import_clauses`.  Safe to call mid-check from
        ``on_restart``.
        """
        units = []
        for l in self._sat.root_literals():
            origin = self._cnf.origin_of(var_of(l))
            if origin is None or (
                vocabulary is not None and not vocabulary(origin)
            ):
                continue
            units.append(
                (serialize_literal(origin, negated=not is_positive(l)),)
            )
            if len(units) >= max_count:
                break
        return units

    def import_clauses(self, clauses) -> int:
        """Install serialized clauses, verbatim.

        Each clause's literals are deserialized through the interning
        layer — atoms are registered with the theory on first sight — and
        the clause is added at the root level.  Returns the number of
        clauses installed.  Must be called between checks (the solver is
        at decision level 0 then).
        """
        count = 0
        for clause in clauses:
            lits = []
            for ser in clause:
                expr, negated = deserialize_literal(ser)
                lit = self._cnf.literal_for(expr)
                lits.append(neg(lit) if negated else lit)
            self._sat.add_clause(lits)
            count += 1
        self._clauses_imported += count
        return count

    def model(self) -> Model:
        if self._model is None:
            raise SolverError("model is only available after a sat check()")
        return self._model
