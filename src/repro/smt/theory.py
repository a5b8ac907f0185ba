"""Linear-real-arithmetic theory backend for the CDCL core (DPLL(T) glue).

Atom lifecycle:

1. At encoding time, :meth:`LraTheory.register_atom` maps each unique
   :class:`~repro.smt.terms.Atom` to a SAT variable and precomputes, for
   both phases of that variable, the bound assertions to perform.  Atoms
   whose coefficient vectors are exact negations of each other share one
   *canonical* slack variable (the orientation with a positive leading
   coefficient): ``x - y <= 5`` and ``y - x <= -7`` both talk about the
   bounds of the same simplex variable, which makes bound propagation see
   their interaction.
2. During search, the SAT core feeds every trail literal to
   :meth:`on_assert`.  Difference atoms are asserted *eagerly* into the
   difference-logic engine (cheap, catches the vast majority of scheduling
   conflicts immediately); every atom is also asserted as a simplex bound.
   Asserting a *general* atom (non-difference, e.g. the paper's stability
   constraints) additionally triggers a full simplex check because such
   atoms interact with difference chains in ways the DL engine cannot see.
3. When propagation reaches fixpoint without conflict, the SAT core calls
   :meth:`propagate`, which merges two implication sources.  *Bound
   propagation*: every simplex variable whose bound was tightened is
   scanned for registered atoms that the new bound *entails* (asserting
   ``s <= 5`` entails the unassigned atom ``s <= 7``, and refutes
   ``s >= 6``), shipping a lazy one-literal explanation (the bound's
   asserting literal).  *Transitive DL propagation* (Cotton & Maler
   2006): the difference-logic engine derives path bounds through
   freshly asserted edges, and a node-pair atom index maps each derived
   bound to the difference atoms it entails or refutes — these ship the
   deriving path's asserted literals as a lazy *multi-literal*
   explanation.  Either way the SAT core assigns implied literals
   instead of branching — the theory-propagation step of Dutertre & de
   Moura's DPLL(T) design.  Propagations lost to backjumping are *not*
   replayed (they re-arise through search); this keeps the hook
   allocation-free on the no-change path.
4. At a full propositional assignment, :meth:`final_check` runs the exact
   simplex over everything, certifying the model; the concrete rational
   model is snapshotted there (before the SAT core backtracks).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..errors import SolverError
from ..sat.literals import UNASSIGNED as _UNASSIGNED
from ..sat.literals import is_positive, var_of
from ..sat.solver import TheoryBackend, TheoryImplication
from .difflogic import DifferenceLogic
from .rationals import DeltaRational
from .simplex import NO_LIT, Simplex
from .terms import Atom, RealVar


class _PhaseAction:
    """Precomputed effect of asserting one phase of a theory atom."""

    __slots__ = ("sx_var", "sx_is_upper", "sx_bound", "dl_edge")

    def __init__(
        self,
        sx_var: int,
        sx_is_upper: bool,
        sx_bound: DeltaRational,
        dl_edge: Optional[Tuple[int, int, DeltaRational]],
    ):
        self.sx_var = sx_var
        self.sx_is_upper = sx_is_upper
        self.sx_bound = sx_bound
        # dl_edge = (x, y, bound): assert  x - y <= bound  in the DL engine.
        self.dl_edge = dl_edge


class _AtomWatch:
    """A registered atom, watched on its simplex variable for propagation.

    ``pos_lit``/``neg_lit`` are the internal SAT literals of the two
    phases; the phase bounds describe when the current variable bounds
    entail each phase (see :meth:`LraTheory.propagate`).
    """

    __slots__ = ("sat_var", "pos_lit", "neg_lit", "pos_is_upper",
                 "pos_bound", "neg_bound")

    def __init__(self, sat_var: int, pos: _PhaseAction, neg_action: _PhaseAction):
        self.sat_var = sat_var
        self.pos_lit = 2 * sat_var
        self.neg_lit = 2 * sat_var + 1
        self.pos_is_upper = pos.sx_is_upper
        self.pos_bound = pos.sx_bound
        self.neg_bound = neg_action.sx_bound


class LraTheory(TheoryBackend):
    """Combined difference-logic + simplex theory with trail alignment."""

    def __init__(self, propagation: bool = True,
                 dl_propagation: bool = True,
                 dl_effort: Optional[int] = None) -> None:
        # Transitive difference-logic propagation rides on theory
        # propagation (implications flow through the same hook), so it is
        # active only when both flags are on.
        self.propagation = propagation
        self.dl_propagation = propagation and dl_propagation
        dl_kwargs = {"propagation": self.dl_propagation}
        if dl_effort is not None:
            dl_kwargs["effort_cap"] = dl_effort
        self.dl = DifferenceLogic(**dl_kwargs)
        self.simplex = Simplex()
        self._real_to_sx: Dict[RealVar, int] = {}
        self._real_to_dl: Dict[RealVar, int] = {}
        self._slack_cache: Dict[Tuple, int] = {}
        # SAT var -> (positive-phase action, negative-phase action, general?)
        self._atoms: Dict[int, Tuple[_PhaseAction, _PhaseAction, bool]] = {}
        # Simplex var -> atoms whose phases are bounds on that var.
        self._watches: Dict[int, List[_AtomWatch]] = {}
        # Node-pair atom index for transitive DL propagation: a phase with
        # DL edge (x, y, B) means "val(x) - val(y) <= B", so a derived
        # path bound W on the pair (y, x) entails the phase iff W <= B.
        # Key: (path source, path target) -> [(sat_var, phase_lit, B)].
        self._dl_watches: Dict[Tuple[int, int],
                               List[Tuple[int, int, DeltaRational]]] = {}
        # Scaled mirror of _dl_watches (thresholds in the DL engine's
        # integer scale, so the propagation loop compares machine ints);
        # rebuilt lazily whenever the engine rescales or atoms register.
        self._dl_scaled: Dict[Tuple[int, int],
                              List[Tuple[int, int, int, int]]] = {}
        self._dl_scaled_scale = 0
        # Undo marks, parallel to the SAT trail.
        self._marks: List[Tuple[int, int]] = []
        self._model_reals: Optional[Dict[RealVar, Fraction]] = None
        #: Literals implied through transitive DL propagation, and the
        #: total path-explanation literals shipped with them.
        self.dl_propagations = 0
        self.dl_explanation_lits = 0

    # ------------------------------------------------------------------
    # Variable / atom registration (encoding time)
    # ------------------------------------------------------------------

    def sx_var(self, var: RealVar) -> int:
        idx = self._real_to_sx.get(var)
        if idx is None:
            idx = self.simplex.new_var()
            self._real_to_sx[var] = idx
        return idx

    def dl_node(self, var: RealVar) -> int:
        idx = self._real_to_dl.get(var)
        if idx is None:
            idx = self.dl.new_node()
            self._real_to_dl[var] = idx
        return idx

    def register_atom(self, atom: Atom, sat_var: int) -> None:
        """Associate a SAT variable with a normalized linear atom."""
        coeffs = atom.coeffs
        rhs = atom.rhs
        strict = atom.strict
        if not coeffs:
            raise SolverError("constant atom should have been folded away")
        is_difference = False

        # Each bound below is built once and shared between the phase's
        # simplex bound, its DL edge and the propagation watch
        # (DeltaRationals are immutable).
        if len(coeffs) == 1:
            (v, c), = coeffs
            b = rhs / c
            sx = self.sx_var(v)
            node = self.dl_node(v)
            zero = self.dl.zero_node
            if c > 0:
                # v <= b (strict?)   /   neg: v > b
                up, lo = _upper(b, strict), _lower_of_neg_le(b, strict)
                pos = _PhaseAction(sx, True, up, (node, zero, up))
                neg = _PhaseAction(sx, False, lo, (zero, node, -lo))
            else:
                # v >= b (strict?)   /   neg: v < b
                lo, up = _lower(b, strict), _upper_of_neg_ge(b, strict)
                pos = _PhaseAction(sx, False, lo, (zero, node, -lo))
                neg = _PhaseAction(sx, True, up, (node, zero, up))
            is_difference = True
        elif len(coeffs) == 2 and coeffs[0][1] == -coeffs[1][1]:
            (v1, c1), (v2, c2) = coeffs
            # c1*v1 + c2*v2 <= rhs with c2 == -c1  =>  v1 - v2 <= rhs/c1 (c1>0)
            if c1 > 0:
                x, y, scale = v1, v2, c1
            else:
                x, y, scale = v2, v1, c2
            nx, ny = self.dl_node(x), self.dl_node(y)
            s, flip = self._slack_for(coeffs)
            # Atom <=> x - y <= b (strict?);  neg: x - y > b <=> y - x < -b.
            # The simplex slack is the canonical-orientation sum(coeffs), so
            # its bounds stay in the rhs scale (negated when this atom is
            # the flipped orientation) while the DL edge uses the b scale
            # -- one and the same for the unit coefficients of Eqs. 5-6.
            pos_sx = _upper(rhs, strict)
            neg_sx = _lower_of_neg_le(rhs, strict)
            minus_neg_sx = -neg_sx
            if scale == 1:
                pos_edge, neg_edge = pos_sx, minus_neg_sx
            else:
                b = rhs / scale
                pos_edge = _upper(b, strict)
                neg_edge = -_lower_of_neg_le(b, strict)
            if flip:
                pos = _PhaseAction(s, False, -pos_sx, (nx, ny, pos_edge))
                neg = _PhaseAction(s, True, minus_neg_sx, (ny, nx, neg_edge))
            else:
                pos = _PhaseAction(s, True, pos_sx, (nx, ny, pos_edge))
                neg = _PhaseAction(s, False, neg_sx, (ny, nx, neg_edge))
            is_difference = True
        else:
            s, flip = self._slack_for(coeffs)
            pos_sx = _upper(rhs, strict)
            neg_sx = _lower_of_neg_le(rhs, strict)
            if flip:
                pos = _PhaseAction(s, False, -pos_sx, None)
                neg = _PhaseAction(s, True, -neg_sx, None)
            else:
                pos = _PhaseAction(s, True, pos_sx, None)
                neg = _PhaseAction(s, False, neg_sx, None)

        self._atoms[sat_var] = (pos, neg, not is_difference)
        self._watches.setdefault(pos.sx_var, []).append(
            _AtomWatch(sat_var, pos, neg)
        )
        self.simplex.watch_var(pos.sx_var)
        if is_difference and self.dl_propagation:
            # Index both phases for transitive DL propagation: the phase
            # with DL edge (x, y, B) is entailed by any derived bound
            # W <= B on the path pair (y, x).  Skipped entirely when the
            # channel is off, so the A/B baseline pays nothing.
            for lit, action in ((2 * sat_var, pos), (2 * sat_var + 1, neg)):
                x, y, bound = action.dl_edge
                self._dl_watches.setdefault((y, x), []).append(
                    (sat_var, lit, bound)
                )
                self.dl.watch_pair(y, x, bound)
            self._dl_scaled_scale = 0  # invalidate the scaled mirror

    def _slack_for(self, coeffs: Tuple[Tuple[RealVar, Fraction], ...]) -> Tuple[int, bool]:
        """Canonical slack variable for a coefficient vector.

        Returns ``(simplex_var, flipped)``: vectors that differ only by an
        overall sign share the canonical variable (leading coefficient
        positive); ``flipped`` tells the caller to negate bounds/senses.
        """
        flip = coeffs[0][1] < 0
        if flip:
            coeffs = tuple((v, -c) for v, c in coeffs)
        # RealVars intern by name, so the (var, coeff) pairs are the key.
        s = self._slack_cache.get(coeffs)
        if s is None:
            s = self.simplex.add_row({self.sx_var(v): c for v, c in coeffs})
            self._slack_cache[coeffs] = s
        return s, flip

    # ------------------------------------------------------------------
    # TheoryBackend protocol
    # ------------------------------------------------------------------

    def on_assert(self, literal: int) -> Optional[List[int]]:
        self._marks.append((self.dl.mark(), self.simplex.mark()))
        entry = self._atoms.get(var_of(literal))
        if entry is None:
            return None
        pos, neg, is_general = entry
        action = pos if is_positive(literal) else neg
        if action.dl_edge is not None:
            x, y, bound = action.dl_edge
            conflict = self.dl.assert_constraint(x, y, bound, literal)
            if conflict is not None:
                return conflict
        if action.sx_is_upper:
            conflict = self.simplex.assert_upper(action.sx_var, action.sx_bound, literal)
        else:
            conflict = self.simplex.assert_lower(action.sx_var, action.sx_bound, literal)
        if conflict is not None:
            return conflict
        if is_general:
            return self.simplex.check()
        return None

    def on_backjump(self, n_kept: int) -> None:
        if n_kept < len(self._marks):
            dl_mark, sx_mark = self._marks[n_kept]
            self.dl.undo_to(dl_mark)
            self.simplex.undo_to(sx_mark)
            del self._marks[n_kept:]

    def propagate(self, assigns) -> List[TheoryImplication]:
        """Unassigned atoms entailed by the freshly changed theory state.

        Two implication sources are merged:

        * **Transitive difference chains** (``dl_propagation``): the DL
          engine's :meth:`~repro.smt.difflogic.DifferenceLogic.implied_bounds`
          derives path bounds through freshly asserted edges; any watched
          node pair whose derived bound ``W`` is at most a registered
          phase's bound entails that phase.  Explanations are the
          asserted literals of the deriving path — *multi-literal*
          reasons, materialized lazily by the SAT core.
        * **Simplex bound tightenings**: for a watch on variable ``s``
          with positive phase ``s <= B`` (and negative phase ``s >= NB``),
          an upper bound ``U <= B`` entails the positive literal, a lower
          bound ``L >= NB`` entails the negative one (symmetrically for
          lower-sense positive phases).  Explanations are single bound
          literals.

        Atoms already assigned are skipped via ``assigns`` before any
        comparison or allocation — a false-assigned atom whose opposite
        phase becomes entailed cannot reach this hook, because both
        phases bound the same canonical simplex variable and the bound
        pair conflicts inside ``on_assert`` first.
        """
        out: List[TheoryImplication] = []
        unassigned = _UNASSIGNED
        if self.dl_propagation:
            entries = self.dl.implied_bounds()
            if entries:
                dl_watches = self._scaled_dl_watches()
                for entry in entries:
                    watches = dl_watches.get((entry.src, entry.dst))
                    if not watches:
                        continue
                    wr, wd = entry.wr, entry.wd
                    for sat_var, lit, tr, td in watches:
                        if assigns[sat_var] != unassigned:
                            continue
                        if wr < tr or (wr == tr and wd <= td):
                            path_lits = entry.path_lits()
                            out.append((lit, path_lits))
                            self.dl_propagations += 1
                            self.dl_explanation_lits += len(path_lits)
        touched = self.simplex.touched_bounds
        if not self.propagation or not touched:
            if touched:
                touched.clear()
            return out
        sx = self.simplex
        for var in touched:
            watches = self._watches.get(var)
            if not watches:
                continue
            lo = sx.lower_bound(var)
            up = sx.upper_bound(var)
            lo_lit = sx.lower_literal(var)
            up_lit = sx.upper_literal(var)
            for w in watches:
                if assigns[w.sat_var] != unassigned:
                    continue
                if w.pos_is_upper:
                    # pos: var <= pos_bound; neg: var >= neg_bound.
                    if up is not None and up_lit != NO_LIT and up <= w.pos_bound:
                        out.append((w.pos_lit, (up_lit,)))
                    elif lo is not None and lo_lit != NO_LIT and lo >= w.neg_bound:
                        out.append((w.neg_lit, (lo_lit,)))
                else:
                    # pos: var >= pos_bound; neg: var <= neg_bound.
                    if lo is not None and lo_lit != NO_LIT and lo >= w.pos_bound:
                        out.append((w.pos_lit, (lo_lit,)))
                    elif up is not None and up_lit != NO_LIT and up <= w.neg_bound:
                        out.append((w.neg_lit, (up_lit,)))
        touched.clear()
        return out

    def _scaled_dl_watches(self) -> Dict[Tuple[int, int],
                                         List[Tuple[int, int, int, int]]]:
        """The DL atom index with thresholds in the engine's scale.

        Rebuilt only when the DL engine rescaled or new atoms registered
        since the last build — both rare — so the propagation loop runs
        on plain machine-integer comparisons.
        """
        scale = self.dl.scale
        if self._dl_scaled_scale != scale:
            self._dl_scaled = {
                key: [
                    (sat_var, lit) + self.dl.scaled_bound(bound)
                    for sat_var, lit, bound in watches
                ]
                for key, watches in self._dl_watches.items()
            }
            # Every bound here was folded into the engine scale when it
            # was registered (watch_pair), and rescaling only multiplies
            # the scale, so the conversions above can never rescale
            # mid-rebuild: all entries — and the ImpliedBound weights
            # they are compared against — share one scale.
            assert self.dl.scale == scale, "rescale during watch rebuild"
            self._dl_scaled_scale = scale
        return self._dl_scaled

    def final_check(self) -> Optional[List[int]]:
        conflict = self.simplex.check()
        if conflict is not None:
            return conflict
        values = self.simplex.model()
        self._model_reals = {
            var: values[idx] for var, idx in self._real_to_sx.items()
        }
        return None

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    @property
    def model_reals(self) -> Dict[RealVar, Fraction]:
        if self._model_reals is None:
            raise SolverError("no theory model available; call check() first")
        return self._model_reals


# Delta components as ready Fractions (DeltaRational would wrap an int).
_NO_DELTA = Fraction(0)
_PLUS_DELTA = Fraction(1)
_MINUS_DELTA = Fraction(-1)


def _upper(b: Fraction, strict: bool) -> DeltaRational:
    """Upper bound for ``e <= b`` / ``e < b``."""
    return DeltaRational(b, _MINUS_DELTA if strict else _NO_DELTA)


def _lower(b: Fraction, strict: bool) -> DeltaRational:
    """Lower bound for ``e >= b`` / ``e > b``."""
    return DeltaRational(b, _PLUS_DELTA if strict else _NO_DELTA)


def _lower_of_neg_le(b: Fraction, strict: bool) -> DeltaRational:
    """Lower bound for the negation of ``e <= b (strict?)``.

    not(e <= b)  ->  e > b   -> bound b + delta
    not(e <  b)  ->  e >= b  -> bound b
    """
    return DeltaRational(b, _NO_DELTA if strict else _PLUS_DELTA)


def _upper_of_neg_ge(b: Fraction, strict: bool) -> DeltaRational:
    """Upper bound for the negation of ``e >= b (strict?)``.

    not(e >= b)  ->  e < b   -> bound b - delta
    not(e >  b)  ->  e <= b  -> bound b
    """
    return DeltaRational(b, _NO_DELTA if strict else _MINUS_DELTA)
