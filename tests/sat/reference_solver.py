"""Frozen pre-arena reference CDCL solver (test oracle only).

This is the object-based (``_Clause`` instances, per-clause watcher
lists) SAT core exactly as it stood before the flat-array arena rewrite
of :mod:`repro.sat.solver`, kept as the differential-testing oracle: the
equivalence property tests replay identical clause streams through both
implementations and require identical verdicts, models,
failed-assumption cores, and conflict/decision counters.

The two learnt-database management bugfixes that shipped *with* the
arena PR are applied here too — LBD-aware reduction with glue-clause
survival, and geometric ``max_learnts`` growth at restarts — so the
reference and the arena solver follow the same search trajectory and the
differential tests isolate the memory-layout change alone.

Not part of the package; nothing outside ``tests/sat`` may import it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import SolverError
from repro.sat.literals import FALSE, TRUE, UNASSIGNED, is_positive, neg, var_of

#: A theory-implied literal with its explanation: the asserted literals
#: that jointly entail it.  The explanation is only materialized into a
#: reason *clause* if conflict analysis ever resolves on the implication.
TheoryImplication = Tuple[int, Tuple[int, ...]]


class TheoryBackend:
    """No-op theory backend: plain SAT solving."""

    def on_assert(self, literal: int) -> Optional[List[int]]:
        """Observe a newly asserted trail literal; return a conflict or None."""
        return None

    def on_backjump(self, n_kept: int) -> None:
        """Undo theory state for trail literals beyond position ``n_kept``."""

    def final_check(self) -> Optional[List[int]]:
        """Check a full assignment; return a conflict explanation or None."""
        return None

    def propagate(self, assigns: Sequence[int]) -> List[TheoryImplication]:
        """Implied literals entailed by the current theory state.

        ``assigns`` is the solver's per-variable assignment array (indexed
        by SAT variable, ``UNASSIGNED`` for open variables) so the theory
        can skip already-assigned atoms without allocating.
        """
        return []


def luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed.

    O(log i): find the smallest complete binary run containing ``i``
    (``i == 2**k - 1`` means ``i`` ends a run and the value is ``2**(k-1)``),
    otherwise recurse into the tail — realized iteratively, shrinking ``i``
    at least one bit per step instead of rescanning ``k`` downward.
    """
    k = i.bit_length()
    while True:
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1
        k = i.bit_length()


class _TheoryReason:
    """Reason clause for a theory-propagated literal, materialized lazily.

    Duck-types the parts of :class:`_Clause` that conflict analysis uses
    (``lits``, ``learnt``, ``activity``).  ``lits`` is built on first
    access: ``[implied, -e1, -e2, ...]`` — a clause that is valid by theory
    reasoning and asserting under the trail that produced it.  The
    explanation may have any arity: difference-logic path implications
    carry every asserted literal of the deriving path, and both 1-UIP
    and final-conflict analysis expand such reasons like any clause.
    """

    __slots__ = ("_implied", "_explain", "_lits", "learnt", "activity")

    def __init__(self, implied: int, explain: Tuple[int, ...]):
        self._implied = implied
        self._explain = explain
        self._lits: Optional[List[int]] = None
        self.learnt = False
        self.activity = 0.0

    @property
    def lits(self) -> List[int]:
        if self._lits is None:
            self._lits = [self._implied] + [neg(e) for e in self._explain]
        return self._lits


class _Clause:
    """A clause with activity bookkeeping for database reduction.

    ``lbd`` (literal block distance: distinct decision levels among the
    literals at learning time) is recorded for learned clauses; it ranks
    sharing-export candidates (low LBD = likely to propagate elsewhere).
    """

    __slots__ = ("lits", "learnt", "activity", "lbd")

    def __init__(self, lits: List[int], learnt: bool, lbd: int = 0):
        self.lits = lits
        self.learnt = learnt
        self.activity = 0.0
        self.lbd = lbd


def _clause_quality(c: _Clause):
    # Worst-first: highest LBD, then lowest activity.
    return (-c.lbd, c.activity)


class SatSolver:
    """Incremental CDCL SAT solver over internal literals.

    Public entry points use the *internal* literal encoding of
    :mod:`repro.sat.literals` (``from_dimacs`` / ``to_dimacs`` convert).
    """

    def __init__(self, theory: Optional[TheoryBackend] = None):
        self.theory = theory or TheoryBackend()
        self._nvars = 0
        # Indexed by variable (1-based; index 0 unused).
        self._assigns: List[int] = [UNASSIGNED]
        self._levels: List[int] = [0]
        self._reasons: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._saved_phase: List[bool] = [False]
        # Indexed by literal.
        self._watches: List[List[_Clause]] = [[], []]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._order_heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        self._ok = True
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        self._theory_propagations = 0
        self._restarts = 0
        self._max_learnts_factor = 1.0 / 3.0
        self._max_learnts: Optional[float] = None
        self._max_learnts_growth = 1.1
        self._model: List[int] = []
        self._theory_qhead = 0
        self._failed_assumptions: List[int] = []

    # ------------------------------------------------------------------
    # Variables and clauses
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def statistics(self) -> dict:
        """Search statistics of the most recent / cumulative solving run."""
        return {
            "conflicts": self._conflicts,
            "decisions": self._decisions,
            "propagations": self._propagations,
            "theory_propagations": self._theory_propagations,
            "restarts": self._restarts,
            "max_learnts": int(self._max_learnts or 0),
            "clauses": len(self._clauses),
            "learnts": len(self._learnts),
            "vars": self._nvars,
        }

    def new_var(self) -> int:
        """Allocate and return a fresh variable (1-based index)."""
        self._nvars += 1
        v = self._nvars
        self._assigns.append(UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._saved_phase.append(False)
        self._watches.append([])
        self._watches.append([])
        self._heap_pos.append(-1)
        self._heap_insert(v)
        return v

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of internal literals.

        Returns False if the solver became trivially UNSAT (empty clause or a
        unit contradicting a root-level assignment).  Clauses may only be
        added at decision level 0 (call :meth:`cancel_until` first if
        needed); this is the standard incremental-SAT interface.
        """
        if self._trail_lim:
            raise SolverError("clauses may only be added at decision level 0")
        if not self._ok:
            return False
        seen = {}
        out: List[int] = []
        for l in lits:
            v = var_of(l)
            if v < 1 or v > self._nvars:
                raise SolverError(f"literal {l} references unknown variable {v}")
            val = self._lit_value(l)
            if val == TRUE:
                return True  # clause already satisfied at root
            if val == FALSE:
                continue  # root-level falsified literal: drop it
            prev = seen.get(v)
            if prev is None:
                seen[v] = l
                out.append(l)
            elif prev != l:
                return True  # tautology (x or not x)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(out, learnt=False)
        self._clauses.append(clause)
        self._attach(clause)
        return True

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------

    def _lit_value(self, l: int) -> int:
        a = self._assigns[var_of(l)]
        if a == UNASSIGNED:
            return UNASSIGNED
        return a if is_positive(l) else a ^ 1

    def value(self, var: int) -> int:
        """Current assignment of ``var``: TRUE, FALSE or UNASSIGNED."""
        return self._assigns[var]

    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the model of the last successful solve."""
        if not self._model:
            raise SolverError("no model available; call solve() first")
        return self._model[var] == TRUE

    def learned_clauses(self) -> List[_Clause]:
        """The live learned-clause database (read-only view for export).

        Unit learned clauses are asserted directly on the trail and never
        stored, so they do not appear here.
        """
        return list(self._learnts)

    @property
    def failed_assumptions(self) -> List[int]:
        """The assumption literals responsible for the last UNSAT answer.

        A subset of the ``assumptions`` passed to the failing
        :meth:`solve` call, jointly inconsistent with the clause database
        (the *unsat core* over assumptions, from final-conflict analysis).
        Empty when the formula is unsat regardless of assumptions, and
        after any SAT answer.
        """
        return list(self._failed_assumptions)

    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, l: int, reason: Optional[_Clause]) -> bool:
        val = self._lit_value(l)
        if val == FALSE:
            return False
        if val == TRUE:
            return True
        v = var_of(l)
        self._assigns[v] = TRUE if is_positive(l) else FALSE
        self._levels[v] = self.decision_level
        self._reasons[v] = reason
        self._trail.append(l)
        return True

    # ------------------------------------------------------------------
    # Watched-literal propagation
    # ------------------------------------------------------------------

    def _attach(self, clause: _Clause) -> None:
        self._watches[neg(clause.lits[0])].append(clause)
        self._watches[neg(clause.lits[1])].append(clause)

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation to fixpoint; returns a conflicting clause or None."""
        while self._qhead < len(self._trail):
            p = self._trail[self._qhead]
            self._qhead += 1
            self._propagations += 1
            watch_list = self._watches[p]
            new_list: List[_Clause] = []
            i = 0
            n = len(watch_list)
            conflict: Optional[_Clause] = None
            while i < n:
                clause = watch_list[i]
                i += 1
                lits = clause.lits
                # Ensure the falsified literal is at position 1.
                if lits[0] == neg(p):
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._lit_value(first) == TRUE:
                    new_list.append(clause)
                    continue
                # Search a new literal to watch.
                moved = False
                for k in range(2, len(lits)):
                    if self._lit_value(lits[k]) != FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[neg(lits[1])].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                new_list.append(clause)
                if not self._enqueue(first, clause):
                    conflict = clause
                    # Copy the rest of the watch list and stop.
                    while i < n:
                        new_list.append(watch_list[i])
                        i += 1
                    self._qhead = len(self._trail)
            self._watches[p] = new_list
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        """Derive a 1-UIP learned clause and its backjump level."""
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._nvars + 1)
        counter = 0
        p: Optional[int] = None
        reason: Optional[_Clause] = conflict
        index = len(self._trail) - 1
        while True:
            assert reason is not None
            self._bump_clause(reason)
            for q in reason.lits:
                if p is not None and q == p:
                    continue
                v = var_of(q)
                if not seen[v] and self._levels[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if self._levels[v] >= self.decision_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Select next trail literal to expand.
            while not seen[var_of(self._trail[index])]:
                index -= 1
            p = self._trail[index]
            v = var_of(p)
            reason = self._reasons[v]
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learnt[0] = neg(p)
        # Clause minimization: drop literals implied by the rest.
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = self._reasons[var_of(q)]
            if r is None:
                kept.append(q)
                continue
            if any(
                not seen[var_of(x)] and self._levels[var_of(x)] > 0
                for x in r.lits
                if x != neg(q)
            ):
                kept.append(q)
        learnt = kept
        lbd = len({self._levels[var_of(q)] for q in learnt})
        if len(learnt) == 1:
            back_level = 0
        else:
            # Find the literal with the second-highest level; move it to slot 1.
            max_i = 1
            for k in range(2, len(learnt)):
                if self._levels[var_of(learnt[k])] > self._levels[var_of(learnt[max_i])]:
                    max_i = k
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self._levels[var_of(learnt[1])]
        return learnt, back_level, lbd

    def _analyze_final(
        self, conflict_lits: Sequence[int], assumptions: Sequence[int]
    ) -> List[int]:
        """Assumption literals reachable from a final conflict (MiniSat's
        ``analyzeFinal``).

        Walks the implication graph backwards from ``conflict_lits``: a
        reached literal with a reason clause is expanded, a reached
        *decision* is — at decision levels at or below the assumption
        prefix — one of the assumption literals and joins the core.  Must
        run before the trail is cancelled.  Returns a subset of
        ``assumptions`` in trail order.
        """
        if not self._trail_lim:
            return []
        assumption_set = set(assumptions)
        seen = bytearray(self._nvars + 1)
        core: List[int] = []
        for l in conflict_lits:
            v = var_of(l)
            if self._levels[v] > 0:
                seen[v] = 1
        start = self._trail_lim[0]
        for i in range(len(self._trail) - 1, start - 1, -1):
            l = self._trail[i]
            v = var_of(l)
            if not seen[v]:
                continue
            seen[v] = 0
            reason = self._reasons[v]
            if reason is None:
                if l in assumption_set:
                    core.append(l)
            else:
                for q in reason.lits:
                    qv = var_of(q)
                    if self._levels[qv] > 0:
                        seen[qv] = 1
        core.reverse()
        return core

    def _record_learnt(self, learnt: List[int], lbd: int = 0) -> None:
        """Install a learned clause and assert its first literal."""
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        clause = _Clause(learnt, learnt=True, lbd=lbd)
        self._learnts.append(clause)
        self._attach(clause)
        self._bump_clause(clause)
        self._enqueue(learnt[0], clause)

    # ------------------------------------------------------------------
    # Activity bookkeeping
    # ------------------------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > 1e100:
            for i in range(1, self._nvars + 1):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100
        if self._heap_pos[v] >= 0:
            self._heap_sift_up(self._heap_pos[v])

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, c: _Clause) -> None:
        if not c.learnt:
            return
        c.activity += self._cla_inc
        if c.activity > 1e20:
            for cl in self._learnts:
                cl.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self._cla_decay

    # ------------------------------------------------------------------
    # Order heap (max-heap on activity with lazy re-insertion)
    # ------------------------------------------------------------------

    def _heap_less(self, a: int, b: int) -> bool:
        return self._activity[a] > self._activity[b]

    def _heap_insert(self, v: int) -> None:
        if self._heap_pos[v] >= 0:
            return
        self._order_heap.append(v)
        self._heap_pos[v] = len(self._order_heap) - 1
        self._heap_sift_up(self._heap_pos[v])

    def _heap_sift_up(self, i: int) -> None:
        heap, pos = self._order_heap, self._heap_pos
        v = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            if self._heap_less(v, heap[parent]):
                heap[i] = heap[parent]
                pos[heap[i]] = i
                i = parent
            else:
                break
        heap[i] = v
        pos[v] = i

    def _heap_sift_down(self, i: int) -> None:
        heap, pos = self._order_heap, self._heap_pos
        v = heap[i]
        n = len(heap)
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            right = left + 1
            child = right if right < n and self._heap_less(heap[right], heap[left]) else left
            if self._heap_less(heap[child], v):
                heap[i] = heap[child]
                pos[heap[i]] = i
                i = child
            else:
                break
        heap[i] = v
        pos[v] = i

    def _heap_pop(self) -> int:
        heap, pos = self._order_heap, self._heap_pos
        top = heap[0]
        last = heap.pop()
        pos[top] = -1
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_sift_down(0)
        return top

    def _pick_branch_var(self) -> int:
        while self._order_heap:
            v = self._heap_pop()
            if self._assigns[v] == UNASSIGNED:
                return v
        return 0

    # ------------------------------------------------------------------
    # Backjumping
    # ------------------------------------------------------------------

    def cancel_until(self, level: int) -> None:
        """Undo all assignments above the given decision level."""
        if self.decision_level <= level:
            return
        keep = self._trail_lim[level]
        for i in range(len(self._trail) - 1, keep - 1, -1):
            l = self._trail[i]
            v = var_of(l)
            self._saved_phase[v] = is_positive(l)
            self._assigns[v] = UNASSIGNED
            self._reasons[v] = None
            self._heap_insert(v)
        del self._trail[keep:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)
        self._theory_qhead = min(self._theory_qhead, keep)
        self.theory.on_backjump(keep)

    # ------------------------------------------------------------------
    # Theory interaction
    # ------------------------------------------------------------------

    def _theory_notify(self, start: int) -> Optional[List[int]]:
        """Feed trail literals from position ``start`` to the theory.

        Returns a learned conflict clause (list of literals) or None.
        Because ``on_assert`` consumes the trail in order, the theory sees
        exactly the asserted literal sequence and can maintain incremental
        state keyed by trail position.
        """
        i = start
        while i < len(self._trail):
            explanation = self.theory.on_assert(self._trail[i])
            i += 1
            if explanation is not None:
                return [neg(l) for l in explanation]
        return None

    def _conflict_clause_from_explanation(self, clause_lits: List[int]) -> _Clause:
        return _Clause(clause_lits, learnt=True)

    def _theory_propagate(self) -> Optional[List[int]]:
        """Assign theory-implied literals; return a conflict clause or None.

        Each implied literal is enqueued with a :class:`_TheoryReason`
        whose explanation clause is built only if conflict analysis ever
        resolves on it.  An implied literal that is already false is a
        theory conflict: its (eagerly materialized) reason clause — which
        the current assignment falsifies — is returned for analysis.
        """
        for implied, explain in self.theory.propagate(self._assigns):
            val = self._lit_value(implied)
            if val == TRUE:
                continue
            if val == FALSE:
                return [implied] + [neg(e) for e in explain]
            self._theory_propagations += 1
            self._enqueue(implied, _TheoryReason(implied, explain))
        return None

    # ------------------------------------------------------------------
    # Clause database reduction
    # ------------------------------------------------------------------

    def _locked(self, c: _Clause) -> bool:
        v = var_of(c.lits[0])
        return self._reasons[v] is c and self._assigns[v] != UNASSIGNED

    def _reduce_db(self) -> None:
        """Drop the worse half of the learnt clauses, in place.

        Glucose-style quality ordering: LBD is the primary key (highest
        first — those are dropped), activity breaks ties (least active
        dropped first).  Locked, binary, and glue (LBD <= 2) clauses
        survive regardless of position.  The list is compacted with a
        write cursor (no rebuilt list, no churn for the kept majority).
        """
        learnts = self._learnts
        learnts.sort(key=_clause_quality)
        lim = len(learnts) // 2
        write = 0
        for i, c in enumerate(learnts):
            if (len(c.lits) > 2 and c.lbd > 2 and not self._locked(c)
                    and i < lim):
                self._detach(c)
            else:
                learnts[write] = c
                write += 1
        del learnts[write:]

    def _detach(self, c: _Clause) -> None:
        for w in (neg(c.lits[0]), neg(c.lits[1])):
            try:
                self._watches[w].remove(c)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve under the given assumption literals.

        Returns True (SAT: model available through :meth:`model_value`) or
        False (UNSAT under these assumptions; the responsible assumption
        subset is then available via :attr:`failed_assumptions`).
        """
        self._failed_assumptions = []
        if not self._ok:
            return False
        self.cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        restart_count = 0
        conflict_budget = 100 * luby(restart_count + 1)
        conflicts_here = 0
        base = max(1000, int(len(self._clauses) * self._max_learnts_factor))
        if self._max_learnts is None or self._max_learnts < base:
            self._max_learnts = float(base)
        assumptions = list(assumptions)

        while True:
            conflict = self._propagate()
            learned_from_theory: Optional[List[int]] = None
            if conflict is None:
                start = self._theory_head()
                theory_clause = self._theory_notify(start)
                if theory_clause is not None:
                    learned_from_theory = theory_clause
                else:
                    learned_from_theory = self._theory_propagate()
                    if learned_from_theory is None and self._qhead < len(self._trail):
                        # Implied literals were enqueued: run BCP over them
                        # (and let the theory observe them) before deciding.
                        continue
            if conflict is not None or learned_from_theory is not None:
                self._conflicts += 1
                conflicts_here += 1
                if learned_from_theory is not None:
                    if not learned_from_theory:
                        self._ok = False
                        return False
                    conflict = self._conflict_clause_from_explanation(learned_from_theory)
                    # A theory conflict may only involve literals below the
                    # current decision level; jump there so that _analyze's
                    # invariant (>= 1 literal at the current level) holds.
                    clause_level = max(self._levels[var_of(l)] for l in conflict.lits)
                    if clause_level < self.decision_level:
                        self.cancel_until(clause_level)
                if self.decision_level <= len(assumptions):
                    # The conflict depends only on root facts and assumptions.
                    if self.decision_level == 0 or not assumptions:
                        self._ok = False
                    else:
                        self._failed_assumptions = self._analyze_final(
                            conflict.lits, assumptions
                        )
                    self.cancel_until(0)
                    return False
                learnt, back_level, lbd = self._analyze(conflict)
                self.cancel_until(back_level)
                self._record_learnt(learnt, lbd)
                self._decay_var_activity()
                self._decay_clause_activity()
                continue

            # No propositional or theory conflict at this point.
            if conflicts_here >= conflict_budget:
                restart_count += 1
                self._restarts += 1
                conflicts_here = 0
                conflict_budget = 100 * luby(restart_count + 1)
                self._max_learnts *= self._max_learnts_growth
                self.cancel_until(self._assumption_level(assumptions))
                continue
            if len(self._learnts) >= self._max_learnts + len(self._trail):
                self._reduce_db()

            next_lit = self._next_assumption(assumptions)
            if next_lit is None and len(self._trail) == self._nvars:
                final = self.theory.final_check()
                if final is not None:
                    clause = [neg(l) for l in final]
                    self._conflicts += 1
                    if not clause:
                        self._ok = False
                        return False
                    conflict = self._conflict_clause_from_explanation(clause)
                    clause_level = max(self._levels[var_of(l)] for l in conflict.lits)
                    if clause_level < self.decision_level:
                        self.cancel_until(clause_level)
                    if self.decision_level <= len(assumptions):
                        if self.decision_level == 0 or not assumptions:
                            self._ok = False
                        else:
                            self._failed_assumptions = self._analyze_final(
                                conflict.lits, assumptions
                            )
                        self.cancel_until(0)
                        return False
                    learnt, back_level, lbd = self._analyze(conflict)
                    self.cancel_until(back_level)
                    self._record_learnt(learnt, lbd)
                    continue
                self._model = list(self._assigns)
                self.cancel_until(0)
                return True
            if next_lit is not None:
                val = self._lit_value(next_lit)
                if val == FALSE:
                    # Assumptions are inconsistent: ``next_lit`` plus the
                    # assumptions its negation was derived from.
                    self._failed_assumptions = [next_lit] + self._analyze_final(
                        [next_lit], assumptions
                    )
                    self.cancel_until(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if val == UNASSIGNED:
                    self._decisions += 1
                    self._enqueue(next_lit, None)
                continue
            v = self._pick_branch_var()
            if v == 0:
                # All vars assigned (handled above), defensive fallback.
                self._model = list(self._assigns)
                self.cancel_until(0)
                return True
            self._decisions += 1
            self._trail_lim.append(len(self._trail))
            phase = self._saved_phase[v]
            self._enqueue(2 * v if phase else 2 * v + 1, None)

    def _theory_head(self) -> int:
        head = getattr(self, "_theory_qhead", 0)
        self._theory_qhead = len(self._trail)
        return head

    def cancel_theory_head(self, n_kept: int) -> None:
        self._theory_qhead = min(getattr(self, "_theory_qhead", 0), n_kept)

    def _assumption_level(self, assumptions: Sequence[int]) -> int:
        return min(len(assumptions), self.decision_level)

    def _next_assumption(self, assumptions: Sequence[int]) -> Optional[int]:
        lvl = self.decision_level
        if lvl < len(assumptions):
            return assumptions[lvl]
        return None
