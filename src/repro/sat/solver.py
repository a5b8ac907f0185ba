"""Conflict-driven clause-learning (CDCL) SAT solver.

This is the propositional core of the from-scratch SMT solver used to
reproduce the paper's Z3-based synthesis.
Features: two-watched-literal propagation, first-UIP conflict analysis,
exponential VSIDS decision heuristic, phase saving, Luby restarts, learned
clause-database reduction, incremental clause addition, solving under
assumptions, and a pluggable *theory backend* hook that turns the solver
into the propositional engine of a DPLL(T) loop.

The clause database is a flat int arena (:mod:`repro.sat.arena`): every
clause is an integer handle into one packed ``array('l')`` of literals
plus parallel side arrays for LBD/activity/flags, MiniSat-style.  Watcher
lists hold handles, reasons are handles (or a lazy
:class:`_TheoryReason`), and deletion is a dead-flag write — dead handles
are dropped lazily as propagation traverses a watcher list, and the
arena compacts (preserving handles, moving only offsets) once half the
literal array is dead.  Truth values are kept twice: ``_assigns`` per
variable (what the theory's ``propagate(assigns)``, ``_locked`` and the
model read) and ``_lvals`` per literal (1 true, 0 false, -1 unassigned),
so the hot loops read a literal's value in one load.  Propagation
compacts each watcher list in place as it walks it.  The two watched
literals of a clause are its first two arena slots, and their order is
part of the search (learnt-clause export and conflict analysis read
it), so there are no blocker literals and no separate binary watch
lists.  Because a clause is now just a slice of ints,
the solver can flush learned clauses mid-search: the :attr:`on_restart`
callback fires at every restart boundary (and once more on a
``max_conflicts``/``stop`` abort) with the trail cancelled to
the assumption level, so level-0 facts and the learned-clause database
are safe to export.

The theory backend protocol (all methods optional, see
:class:`TheoryBackend`):

* ``on_assert(lit)`` — called for every literal as it enters the trail;
  may return a *conflict explanation* (a list of asserted literals that are
  jointly theory-inconsistent).
* ``on_backjump(n_kept)`` — trail was truncated to its first ``n_kept``
  literals; the theory must undo newer assertions.
* ``final_check()`` — called when nothing is left to decide (see
  *Relevancy* below); may return a conflict explanation.  Returning
  ``None`` means the assignment is theory-consistent and the solver
  answers SAT.
* ``propagate(assigns)`` — called when Boolean and theory propagation are
  at fixpoint with no conflict; returns *implied literals* — unassigned
  atoms entailed by the current theory state — each paired with the
  asserted literals that entail it.  Explanations may have any arity
  (the LRA theory's simplex bound implications ship one literal);
  conflict analysis and final-conflict (unsat core) analysis resolve
  through them.  The
  solver assigns implied literals instead of branching (the
  theory-propagation step of DPLL(T)); the explanation is materialized
  into a reason clause only if conflict analysis ever resolves on the
  implication.

Relevancy.  A variable declared through :meth:`SatSolver.mark_atom` is a
*don't-care candidate*: the solver keeps the list of problem clauses it
occurs in, and when the order heap offers it for branching while every
one of those clauses already has a true literal, it is *parked* instead
of decided — no value for it can falsify a problem clause, and asserting
a made-up one into the theory only buys conflicts.  Parking invariant:
``_parked`` holds ``(var, level)`` with levels non-decreasing, and every
problem clause containing ``var`` has a true literal assigned at or
below ``level``; so the entry stays valid exactly until a backjump goes
below ``level`` (:meth:`SatSolver.cancel_until` returns it to the heap)
or a clause is added (:meth:`SatSolver.solve` returns all of them at its
start).  The search answers SAT when the heap is exhausted: every
variable is then assigned or parked, BCP is at fixpoint, hence every
problem clause has a true literal among the *assigned* ones and the
model may be partial over marked variables.  Propagation, theory
implications, conflict analysis and learnt clauses treat marked
variables like any other, so UNSAT answers and cores keep their
derivations.  A solver with no marked variable is plain CDCL: nothing is
ever parked and the full-trail test ends the search before the heap is
consulted (``tests/sat/test_differential.py`` pins its trajectories to
the frozen reference solver).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import SolverError
from .arena import ClauseArena
from .literals import FALSE, TRUE, UNASSIGNED, neg, var_of

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
    """Reason for a theory-propagated literal, materialized lazily.

    ``lits`` is built on first access: ``[implied, -e1, -e2, ...]`` — a
    clause that is valid by theory reasoning and asserting under the
    trail that produced it.  The explanation may have any arity:
    difference-logic path implications carry every asserted literal of
    the deriving path, and both 1-UIP and final-conflict analysis expand
    such reasons like any clause handle.
    """

    __slots__ = ("_implied", "_explain", "_lits")

    def __init__(self, implied: int, explain: Tuple[int, ...]):
        self._implied = implied
        self._explain = explain
        self._lits: Optional[List[int]] = None

    @property
    def lits(self) -> List[int]:
        if self._lits is None:
            self._lits = [self._implied] + [neg(e) for e in self._explain]
        return self._lits


#: A reason on the trail: a clause handle, a lazy theory explanation, or
#: None for decisions / assumption enqueues / root units.
Reason = Union[int, _TheoryReason]

#: A conflict entering analysis: a clause handle from propagation, or a
#: plain literal list from the theory (never installed in the database).
Conflict = Union[int, List[int]]


class LearnedClause:
    """Read-only export view of one learned clause (lits + LBD)."""

    __slots__ = ("lits", "lbd")

    def __init__(self, lits: List[int], lbd: int):
        self.lits = lits
        self.lbd = lbd


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
        # Indexed by literal (literals 0 and 1 unused): 1 true, 0 false,
        # -1 unassigned; written beside _assigns.
        self._lvals: List[int] = [UNASSIGNED, UNASSIGNED]
        self._levels: List[int] = [0]
        self._reasons: List[Optional[Reason]] = [None]
        self._activity: List[float] = [0.0]
        self._saved_phase: List[bool] = [False]
        # Indexed by literal: lists of clause handles (lazily pruned).
        self._watches: List[List[int]] = [[], []]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._arena = ClauseArena()
        self._clauses: List[int] = []
        self._learnts: List[int] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._order_heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        # Relevancy filter (module docstring): per variable, None or --
        # for a variable declared by mark_atom() -- the handles of the
        # problem clauses containing it; and the stack of parked
        # variables with the decision level each was parked at (a
        # variable implied and backjumped in between may sit on it twice;
        # returning it to the heap is idempotent).
        self._occurs: List[Optional[List[int]]] = [None]
        self._parked: List[Tuple[int, int]] = []
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
        #: Fired with the solver after every restart backjump (and once
        #: more on a budget/stop abort): the trail is at the
        #: assumption level, so :meth:`root_literals` and
        #: :meth:`learned_clauses` are safe to export mid-solve.
        self.on_restart: Optional[Callable[["SatSolver"], None]] = None

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
        self._lvals.append(UNASSIGNED)
        self._lvals.append(UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._saved_phase.append(False)
        self._watches.append([])
        self._watches.append([])
        self._heap_pos.append(-1)
        self._occurs.append(None)
        self._heap_insert(v)
        return v

    def mark_atom(self, var: int) -> None:
        """Declare ``var`` a theory atom the search may leave undecided.

        From here on the solver records which problem clauses contain
        ``var`` and stops branching on it while each of them has a true
        literal (module docstring, *Relevancy*); :meth:`model_value`
        refuses to answer for a variable a SAT answer left open.  Must
        be called before ``var`` appears in any clause.
        """
        if (self._assigns[var] != UNASSIGNED
                or self._watches[2 * var] or self._watches[2 * var + 1]):
            raise SolverError(
                f"variable {var} must be marked before it occurs in a clause")
        self._occurs[var] = []

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
        assigns, nvars = self._assigns, self._nvars
        for l in lits:
            v = l >> 1
            if v < 1 or v > nvars:
                raise SolverError(f"literal {l} references unknown variable {v}")
            a = assigns[v]
            if a != UNASSIGNED:
                if a ^ (l & 1) == TRUE:
                    return True  # clause already satisfied at root
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
        handle = self._arena.new_clause(out, learnt=False)
        self._clauses.append(handle)
        self._attach(handle)
        occurs = self._occurs
        for l in out:
            occ = occurs[l >> 1]
            if occ is not None:
                occ.append(handle)
        return True

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------

    def value(self, var: int) -> int:
        """Current assignment of ``var``: TRUE, FALSE or UNASSIGNED."""
        return self._assigns[var]

    def model_value(self, var: int) -> bool:
        """Value of ``var`` in the model of the last successful solve.

        A marked variable (:meth:`mark_atom`) that the solve left
        undecided has no value: its truth is whatever the theory model
        makes of it, so asking for one is an error, not ``False``.
        """
        if not self._model:
            raise SolverError("no model available; call solve() first")
        value = self._model[var]
        if value == UNASSIGNED:
            raise SolverError(
                f"variable {var} is a don't-care atom the last solve left "
                "undecided; evaluate it from the theory model")
        return value == TRUE

    def learned_clauses(self) -> List[LearnedClause]:
        """The live learned-clause database (read-only view for export).

        Unit learned clauses are asserted directly on the trail and never
        stored, so they do not appear here — :meth:`root_literals`
        exposes them (and every other level-0 fact) for unit export.
        """
        arena = self._arena
        return [LearnedClause(arena.literals(h), arena.lbd[h])
                for h in self._learnts]

    def root_literals(self) -> List[int]:
        """Literals asserted at decision level 0, in trail order.

        These are facts entailed by the clause database alone —
        independent of any assumptions, which live at levels >= 1 — so
        they are sound to export as unit clauses.  Safe to call
        mid-solve from :attr:`on_restart` (the level-0 trail prefix
        survives every backjump).
        """
        end = self._trail_lim[0] if self._trail_lim else len(self._trail)
        return self._trail[:end]

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

    def _enqueue(self, l: int, reason: Optional[Reason]) -> bool:
        lvals = self._lvals
        val = lvals[l]
        if val != UNASSIGNED:
            return val == TRUE
        v = l >> 1
        self._assigns[v] = (l & 1) ^ 1
        lvals[l] = TRUE
        lvals[l ^ 1] = FALSE
        self._levels[v] = len(self._trail_lim)
        self._reasons[v] = reason
        self._trail.append(l)
        return True

    # ------------------------------------------------------------------
    # Watched-literal propagation
    # ------------------------------------------------------------------

    def _attach(self, handle: int) -> None:
        arena = self._arena
        o = arena.off[handle]
        self._watches[arena.lits[o] ^ 1].append(handle)
        self._watches[arena.lits[o + 1] ^ 1].append(handle)

    def _propagate(self) -> Optional[int]:
        """Unit propagation to fixpoint; returns a conflicting handle or None.

        Hot loop: clause state is read straight out of the arena's flat
        arrays (no per-clause objects), a literal's truth is one
        ``_lvals`` load, and the queue head, level and propagation count
        are locals written back once per call.  Each watcher list is
        compacted in place: kept handles slide down over dead and moved
        ones, and on a conflict the unvisited tail slides down after
        them, in order.
        """
        trail = self._trail
        qhead = self._qhead
        arena = self._arena
        lits = arena.lits
        off = arena.off
        size = arena.size
        dead = arena.dead
        assigns = self._assigns
        lvals = self._lvals
        levels = self._levels
        reasons = self._reasons
        watches = self._watches
        level = len(self._trail_lim)
        propagations = self._propagations
        conflict = -1
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            propagations += 1
            not_p = p ^ 1
            ws = watches[p]
            visit = iter(ws)
            j = 0
            for c in visit:
                if dead[c]:
                    continue
                o = off[c]
                # Ensure the falsified literal is at position 1.
                l0 = lits[o]
                if l0 == not_p:
                    l0 = lits[o + 1]
                    lits[o] = l0
                    lits[o + 1] = not_p
                fval = lvals[l0]
                if fval == 1:
                    ws[j] = c
                    j += 1
                    continue
                # Search a new literal to watch: any one not false.
                for k in range(o + 2, o + size[c]):
                    lk = lits[k]
                    if lvals[lk] != 0:
                        lits[o + 1] = lk
                        lits[k] = not_p
                        watches[lk ^ 1].append(c)
                        break
                else:
                    # Clause is unit or conflicting.
                    ws[j] = c
                    j += 1
                    if fval == 0:
                        conflict = c
                        break
                    v0 = l0 >> 1
                    assigns[v0] = (l0 & 1) ^ 1
                    lvals[l0] = 1
                    lvals[l0 ^ 1] = 0
                    levels[v0] = level
                    reasons[v0] = c
                    trail.append(l0)
            if conflict >= 0:
                ws[j:] = list(visit)
                qhead = len(trail)
                break
            del ws[j:]
        self._qhead = qhead
        self._propagations = propagations
        return conflict if conflict >= 0 else None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _reason_lits(self, reason: Reason) -> List[int]:
        """The literal list of a reason: arena slice or lazy theory clause."""
        if type(reason) is int:
            return self._arena.literals(reason)
        return reason.lits

    def _conflict_lits(self, conflict: Conflict) -> List[int]:
        if type(conflict) is int:
            return self._arena.literals(conflict)
        return conflict

    def _analyze(self, conflict: Conflict) -> tuple[List[int], int, int]:
        """Derive a 1-UIP learned clause and its backjump level.

        Hot path: variable bumps, reason-literal reads and level tests
        are inlined, and ``seen`` is a bytearray.
        """
        arena = self._arena
        alits = arena.lits
        aoff = arena.off
        asize = arena.size
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        activity = self._activity
        heap_pos = self._heap_pos
        sift_up = self._heap_sift_up
        var_inc = self._var_inc
        level = len(self._trail_lim)
        seen = bytearray(self._nvars + 1)
        learnt: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        p = -1  # the literal resolved on; none yet
        reason: Optional[Conflict] = conflict
        index = len(trail) - 1
        while True:
            assert reason is not None
            if type(reason) is int:
                self._bump_clause(reason)
                o = aoff[reason]
                rlits = alits[o:o + asize[reason]]
            elif type(reason) is list:
                rlits = reason
            else:
                rlits = reason.lits
            for q in rlits:
                if q == p:
                    continue
                v = q >> 1
                if not seen[v] and levels[v] > 0:
                    seen[v] = 1
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > 1e100:
                        for k in range(1, self._nvars + 1):
                            activity[k] *= 1e-100
                        var_inc *= 1e-100
                        self._var_inc = var_inc
                    if heap_pos[v] >= 0:
                        sift_up(heap_pos[v])
                    if levels[v] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Select next trail literal to expand.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            v = p >> 1
            reason = reasons[v]
            seen[v] = 0
            counter -= 1
            index -= 1
            if counter == 0:
                break
        learnt[0] = p ^ 1
        # Clause minimization: drop literals implied by the rest.
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reasons[q >> 1]
            if r is None:
                kept.append(q)
                continue
            if type(r) is int:
                o = aoff[r]
                rlits = alits[o:o + asize[r]]
            else:
                rlits = r.lits
            not_q = q ^ 1
            for x in rlits:
                if x != not_q:
                    vx = x >> 1
                    if not seen[vx] and levels[vx] > 0:
                        kept.append(q)
                        break
        learnt = kept
        lbd = len({levels[q >> 1] for q in learnt})
        if len(learnt) == 1:
            back_level = 0
        else:
            # Find the literal with the second-highest level; move it to slot 1.
            max_i = 1
            back_level = levels[learnt[1] >> 1]
            for k in range(2, len(learnt)):
                lv = levels[learnt[k] >> 1]
                if lv > back_level:
                    max_i = k
                    back_level = lv
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, back_level, lbd

    def _analyze_final(
        self, conflict_lits: Sequence[int], assumptions: Sequence[int]
    ) -> List[int]:
        """Assumption literals reachable from a final conflict (MiniSat's
        ``analyzeFinal``).

        Walks the implication graph backwards from ``conflict_lits``: a
        reached literal with a reason is expanded, a reached
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
                for q in self._reason_lits(reason):
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
        handle = self._arena.new_clause(learnt, learnt=True, lbd=lbd)
        self._learnts.append(handle)
        self._attach(handle)
        self._bump_clause(handle)
        self._enqueue(learnt[0], handle)

    # ------------------------------------------------------------------
    # Activity bookkeeping
    # ------------------------------------------------------------------

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, handle: int) -> None:
        arena = self._arena
        if not arena.learnt[handle]:
            return
        activity = arena.activity
        activity[handle] += self._cla_inc
        if activity[handle] > 1e20:
            for h in self._learnts:
                activity[h] *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self._cla_decay

    # ------------------------------------------------------------------
    # Order heap (max-heap on activity with lazy re-insertion)
    # ------------------------------------------------------------------

    def _heap_insert(self, v: int) -> None:
        if self._heap_pos[v] >= 0:
            return
        self._order_heap.append(v)
        self._heap_pos[v] = len(self._order_heap) - 1
        self._heap_sift_up(self._heap_pos[v])

    def _heap_sift_up(self, i: int) -> None:
        heap, pos, activity = self._order_heap, self._heap_pos, self._activity
        v = heap[i]
        act = activity[v]
        while i > 0:
            parent = (i - 1) >> 1
            u = heap[parent]
            if act > activity[u]:
                heap[i] = u
                pos[u] = i
                i = parent
            else:
                break
        heap[i] = v
        pos[v] = i

    def _heap_sift_down(self, i: int) -> None:
        heap, pos, activity = self._order_heap, self._heap_pos, self._activity
        v = heap[i]
        act = activity[v]
        n = len(heap)
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            child_act = activity[heap[child]]
            right = child + 1
            if right < n:
                right_act = activity[heap[right]]
                if right_act > child_act:
                    child = right
                    child_act = right_act
            if child_act > act:
                u = heap[child]
                heap[i] = u
                pos[u] = i
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
        """Most active unassigned variable worth deciding, or 0 if none.

        A marked variable none of whose problem clauses is still open is
        parked at the current decision level instead of returned.
        """
        assigns = self._assigns
        occurs = self._occurs
        while self._order_heap:
            v = self._heap_pop()
            if assigns[v] != UNASSIGNED:
                continue
            occ = occurs[v]
            if occ is None or self._any_open(occ):
                return v
            self._parked.append((v, len(self._trail_lim)))
        return 0

    def _any_open(self, handles: List[int]) -> bool:
        """True if one of these clauses has no true literal yet."""
        arena = self._arena
        lits = arena.lits
        off = arena.off
        size = arena.size
        lvals = self._lvals
        for c in handles:
            o = off[c]
            for k in range(o, o + size[c]):
                if lvals[lits[k]] == 1:
                    break
            else:
                return True
        return False

    def _unpark(self, level: int) -> None:
        """Return the variables parked above ``level`` to the order heap."""
        parked = self._parked
        while parked and parked[-1][1] > level:
            self._heap_insert(parked.pop()[0])

    # ------------------------------------------------------------------
    # Backjumping
    # ------------------------------------------------------------------

    def cancel_until(self, level: int) -> None:
        """Undo all assignments above the given decision level."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        keep = trail_lim[level]
        trail = self._trail
        assigns = self._assigns
        lvals = self._lvals
        reasons = self._reasons
        saved_phase = self._saved_phase
        heap = self._order_heap
        heap_pos = self._heap_pos
        sift_up = self._heap_sift_up
        for l in reversed(trail[keep:]):
            v = l >> 1
            saved_phase[v] = not l & 1
            assigns[v] = UNASSIGNED
            lvals[l] = UNASSIGNED
            lvals[l ^ 1] = UNASSIGNED
            reasons[v] = None
            if heap_pos[v] < 0:
                heap_pos[v] = len(heap)
                heap.append(v)
                sift_up(heap_pos[v])
        del trail[keep:]
        del trail_lim[level:]
        self._unpark(level)
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

    def _theory_propagate(self) -> Optional[List[int]]:
        """Assign theory-implied literals; return a conflict clause or None.

        Each implied literal is enqueued with a :class:`_TheoryReason`
        whose explanation clause is built only if conflict analysis ever
        resolves on it.  An implied literal that is already false is a
        theory conflict: its explanation clause — which the current
        assignment falsifies — is returned for analysis.
        """
        for implied, explain in self.theory.propagate(self._assigns):
            val = self._lvals[implied]
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

    def _locked(self, handle: int) -> bool:
        arena = self._arena
        v = arena.lits[arena.off[handle]] >> 1
        return self._reasons[v] == handle and self._assigns[v] != UNASSIGNED

    def _reduce_db(self) -> None:
        """Drop the worse half of the learnt clauses, in place.

        Glucose-style quality ordering: LBD is the primary key (highest
        first — those are dropped), activity breaks ties (least active
        dropped first).  Locked, binary, and glue (LBD <= 2) clauses
        survive regardless of position.  Deletion is a dead-flag write;
        watcher lists shed the dead handles lazily during propagation,
        and the arena compacts once half its literal array is dead.
        """
        arena = self._arena
        lbd = arena.lbd
        activity = arena.activity
        size = arena.size
        learnts = self._learnts
        learnts.sort(key=lambda h: (-lbd[h], activity[h]))
        lim = len(learnts) // 2
        write = 0
        for i, h in enumerate(learnts):
            if size[h] > 2 and lbd[h] > 2 and not self._locked(h) and i < lim:
                arena.delete(h)
            else:
                learnts[write] = h
                write += 1
        del learnts[write:]
        if arena.wasted and arena.wasted * 2 >= len(arena.lits):
            self._compact()

    def _compact(self) -> None:
        """Purge dead handles from every watcher list, then repack the arena.

        Search-neutral: the relative order of live handles in each
        watcher list is preserved (propagation would have skipped the
        dead ones anyway), and compaction keeps handles stable — only
        their offsets move — so reasons need no remapping.  Afterwards
        the dead ids are recyclable.
        """
        dead = self._arena.dead
        for wl in self._watches:
            if wl:
                wl[:] = [h for h in wl if not dead[h]]
        self._arena.compact()

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Optional[bool]:
        """Solve under the given assumption literals.

        Returns True (SAT: model available through :meth:`model_value`),
        False (UNSAT under these assumptions; the responsible assumption
        subset is then available via :attr:`failed_assumptions`), or None
        (aborted: this call spent ``max_conflicts`` conflicts, or
        ``stop()`` answered true).  ``stop`` is polled before every
        decision and held only for this call.  Aborts happen only at
        restart-safe points — after the trail is cancelled and a final
        :attr:`on_restart` flush has fired — so they are deterministic
        for a fixed ``max_conflicts`` and the solver stays reusable.
        """
        self._failed_assumptions = []
        if not self._ok:
            return False
        self.cancel_until(0)
        # Clauses may have been added since a variable was parked at
        # level 0: every parked variable is looked at again.
        self._unpark(-1)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        restart_count = 0
        conflict_budget = 100 * luby(restart_count + 1)
        conflicts_here = 0
        conflicts_at_entry = self._conflicts
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
                    conflict = learned_from_theory
                    # A theory conflict may only involve literals below the
                    # current decision level; jump there so that _analyze's
                    # invariant (>= 1 literal at the current level) holds.
                    clause_level = max(self._levels[var_of(l)] for l in conflict)
                    if clause_level < self.decision_level:
                        self.cancel_until(clause_level)
                if self.decision_level <= len(assumptions):
                    # The conflict depends only on root facts and assumptions.
                    if self.decision_level == 0 or not assumptions:
                        self._ok = False
                    else:
                        self._failed_assumptions = self._analyze_final(
                            self._conflict_lits(conflict), assumptions
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
            if (max_conflicts is not None
                    and self._conflicts - conflicts_at_entry >= max_conflicts
                    ) or (stop is not None and stop()):
                # Deterministic abort at a restart-safe point, with one
                # final export flush so a killed worker still shares.
                self.cancel_until(0)
                if self.on_restart is not None:
                    self.on_restart(self)
                return None
            if conflicts_here >= conflict_budget:
                restart_count += 1
                self._restarts += 1
                conflicts_here = 0
                conflict_budget = 100 * luby(restart_count + 1)
                self._max_learnts *= self._max_learnts_growth
                self.cancel_until(self._assumption_level(assumptions))
                if self.on_restart is not None:
                    self.on_restart(self)
                continue
            if len(self._learnts) >= self._max_learnts + len(self._trail):
                self._reduce_db()

            next_lit = self._next_assumption(assumptions)
            if next_lit is not None:
                val = self._lvals[next_lit]
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
            # The full-trail test comes first so that a solver with no
            # marked variable never drains the heap to learn it is done.
            v = 0 if len(self._trail) == self._nvars else self._pick_branch_var()
            if v == 0:
                # Nothing left to decide: every variable is assigned or a
                # parked don't-care (module docstring, *Relevancy*).
                final = self.theory.final_check()
                if final is not None:
                    clause = [neg(l) for l in final]
                    self._conflicts += 1
                    if not clause:
                        self._ok = False
                        return False
                    conflict = clause
                    clause_level = max(self._levels[var_of(l)] for l in conflict)
                    if clause_level < self.decision_level:
                        self.cancel_until(clause_level)
                    if self.decision_level <= len(assumptions):
                        if self.decision_level == 0 or not assumptions:
                            self._ok = False
                        else:
                            self._failed_assumptions = self._analyze_final(
                                conflict, assumptions
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
            self._decisions += 1
            self._trail_lim.append(len(self._trail))
            phase = self._saved_phase[v]
            self._enqueue(2 * v if phase else 2 * v + 1, None)

    def _theory_head(self) -> int:
        head = self._theory_qhead
        self._theory_qhead = len(self._trail)
        return head

    def _assumption_level(self, assumptions: Sequence[int]) -> int:
        return min(len(assumptions), self.decision_level)

    def _next_assumption(self, assumptions: Sequence[int]) -> Optional[int]:
        lvl = self.decision_level
        if lvl < len(assumptions):
            return assumptions[lvl]
        return None
