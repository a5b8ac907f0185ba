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

Number representation
---------------------

Both engines keep their state as integer pairs over one scale each
(:class:`~repro.smt.rationals.ScaledEngine`), and this module speaks to
them in those units only.  :meth:`LraTheory.register_atom` converts an
atom's right-hand side **once per engine**, which folds its denominator
into that engine's scale, and stores the ready pairs on the two
:class:`_PhaseAction` objects: the simplex bound and the DL edge weight,
which double as the propagation thresholds.  ``on_assert`` hands those
pairs over and ``propagate`` compares them (tuple order is the
delta-rational order) — no ``Fraction`` and no ``DeltaRational`` on
either path.  A scale can grow at two moments only: when an atom with a
finer denominator registers, and inside ``Simplex.check()`` when a
tableau step needs it.  :meth:`LraTheory._sync_scales` runs right after
both and multiplies every stored pair by the growth factor in one pass,
so the pairs handed to an engine and the bounds read back from it are
always in that engine's current scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..errors import SolverError
from ..sat.literals import UNASSIGNED as _UNASSIGNED
from ..sat.literals import is_positive, var_of
from ..sat.solver import TheoryBackend, TheoryImplication
from .difflogic import DifferenceLogic
from .rationals import Scaled
from .simplex import NO_LIT, Simplex
from .terms import Atom, Rational, RealVar


class _PhaseAction:
    """Precomputed effect of asserting one phase of a theory atom.

    ``sx_bound`` is in the simplex's scale and ``dl_bound`` in the DL
    engine's (see :meth:`LraTheory._sync_scales`).
    """

    __slots__ = ("sx_var", "sx_is_upper", "sx_bound", "dl_x", "dl_y",
                 "dl_bound")

    def __init__(self, sx_var: int, sx_is_upper: bool, sx_bound: Scaled,
                 dl_x: int = -1, dl_y: int = -1,
                 dl_bound: Optional[Scaled] = None):
        self.sx_var = sx_var
        self.sx_is_upper = sx_is_upper
        self.sx_bound = sx_bound
        # Assert  dl_x - dl_y <= dl_bound  in the DL engine; dl_bound is
        # None for a general atom.
        self.dl_x = dl_x
        self.dl_y = dl_y
        self.dl_bound = dl_bound


class _AtomWatch:
    """A registered atom: its two phases, and its watch on their simplex
    variable for propagation.

    ``pos_lit``/``neg_lit`` are the internal SAT literals of the two
    phases; the phase actions' bounds describe when the current variable
    bounds entail each phase (see :meth:`LraTheory.propagate`).
    ``general`` marks an atom that is not a difference constraint.
    """

    __slots__ = ("sat_var", "pos_lit", "neg_lit", "pos_is_upper",
                 "pos", "neg", "general")

    def __init__(self, sat_var: int, pos: _PhaseAction,
                 neg_action: _PhaseAction, general: bool):
        self.sat_var = sat_var
        self.pos_lit = 2 * sat_var
        self.neg_lit = 2 * sat_var + 1
        self.pos_is_upper = pos.sx_is_upper
        self.pos = pos
        self.neg = neg_action
        self.general = general


class LraTheory(TheoryBackend):
    """Combined difference-logic + simplex theory with trail alignment."""

    def __init__(self, propagation: bool = True,
                 dl_propagation: bool = True) -> None:
        # Transitive difference-logic propagation rides on theory
        # propagation (implications flow through the same hook), so it is
        # active only when both flags are on.
        self.propagation = propagation
        self.dl_propagation = propagation and dl_propagation
        self.dl = DifferenceLogic(propagation=self.dl_propagation)
        self.simplex = Simplex()
        self._real_to_sx: Dict[RealVar, int] = {}
        self._real_to_dl: Dict[RealVar, int] = {}
        self._slack_cache: Dict[Tuple, int] = {}
        # SAT var -> the registered atom (both phases, general?).
        self._atoms: Dict[int, _AtomWatch] = {}
        # Simplex var -> atoms whose phases are bounds on that var.
        self._watches: Dict[int, List[_AtomWatch]] = {}
        # Node-pair atom index for transitive DL propagation: a phase with
        # DL edge (x, y, B) means "val(x) - val(y) <= B", so a derived
        # path bound W on the pair (y, x) entails the phase iff W <= B.
        # Key: (path source, path target) -> [(sat_var, phase_lit,
        # phase action)], B being the action's dl_bound.
        self._dl_watches: Dict[Tuple[int, int],
                               List[Tuple[int, int, _PhaseAction]]] = {}
        # The engine scales every stored _PhaseAction pair is expressed
        # in (see _sync_scales).
        self._sx_scale = self.simplex.scale
        self._dl_scale = self.dl.scale
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
        n = len(coeffs)
        if not n:
            raise SolverError("constant atom should have been folded away")

        # Each right-hand side is converted once per engine (which folds
        # its denominator into that engine's scale); the phases' bounds
        # differ from it only in their delta part, one unit of which is
        # the scale itself.  Coefficients are ints unless fractional
        # (terms._exact), so the unit coefficients of Eqs. 5-6 cost int
        # compares and no division.
        simplex, dl = self.simplex, self.dl
        if n == 1:
            (v, c), = coeffs
            b = rhs if c == 1 else -rhs if c == -1 else _quotient(rhs, c)
            sx = self.sx_var(v)
            node = self.dl_node(v)
            zero = dl.zero_node
            sx_b, su = simplex.scaled_bound(b)[0], simplex.scale
            dl_b, du = dl.scaled_bound(b)[0], dl.scale
            # c > 0: v <= b (strict?), neg: v > b.  c < 0: v >= b (strict?),
            # neg: v < b.  Either way one phase bounds v from above and
            # the other from below, and the one that excludes b is a
            # delta inside it.
            if strict == (c > 0):
                up_d, lo_d, dl_up_d, dl_lo_d = -su, 0, -du, 0
            else:
                up_d, lo_d, dl_up_d, dl_lo_d = 0, su, 0, du
            upper = _PhaseAction(sx, True, (sx_b, up_d),
                                 node, zero, (dl_b, dl_up_d))
            lower = _PhaseAction(sx, False, (sx_b, lo_d),
                                 zero, node, (-dl_b, -dl_lo_d))
            pos, neg = (upper, lower) if c > 0 else (lower, upper)
            general = False
            moved = su != self._sx_scale or du != self._dl_scale
        else:
            # The simplex slack is the canonical-orientation sum(coeffs),
            # so its bounds stay in the rhs scale, negated (senses
            # swapped) when this atom is the flipped orientation.
            s, flip = self._slack_for(coeffs)
            sx_b, su = simplex.scaled_bound(rhs)[0], simplex.scale
            pos_d, neg_d = (-su, 0) if strict else (0, su)
            if flip:
                sx_b, pos_d, neg_d = -sx_b, -pos_d, -neg_d
            general = n != 2 or coeffs[0][1] != -coeffs[1][1]
            if general:
                pos = _PhaseAction(s, not flip, (sx_b, pos_d))
                neg = _PhaseAction(s, flip, (sx_b, neg_d))
                moved = su != self._sx_scale
            else:
                # c1*v1 + c2*v2 <= rhs with c2 == -c1: x - y <= b for
                # b = rhs/|c1|, x the variable with the positive
                # coefficient; neg: x - y > b <=> y - x < -b.
                (v1, c1), (v2, c2) = coeffs
                x, y, scale = (v2, v1, c2) if flip else (v1, v2, c1)
                nx, ny = self.dl_node(x), self.dl_node(y)
                b = rhs if scale == 1 else _quotient(rhs, scale)
                dl_b, du = dl.scaled_bound(b)[0], dl.scale
                dl_pos_d, dl_neg_d = (-du, 0) if strict else (0, du)
                pos = _PhaseAction(s, not flip, (sx_b, pos_d),
                                   nx, ny, (dl_b, dl_pos_d))
                neg = _PhaseAction(s, flip, (sx_b, neg_d),
                                   ny, nx, (-dl_b, -dl_neg_d))
                moved = su != self._sx_scale or du != self._dl_scale

        # Registering this atom may have grown a scale (a new row, a finer
        # right-hand side): bring the older atoms up before it joins them.
        if moved:
            self._sync_scales()
        watch = _AtomWatch(sat_var, pos, neg, general)
        self._atoms[sat_var] = watch
        watches = self._watches.get(pos.sx_var)
        if watches is None:
            self._watches[pos.sx_var] = [watch]
        else:
            watches.append(watch)
        simplex.watch_var(pos.sx_var)
        if not general and self.dl_propagation:
            # Index both phases for transitive DL propagation: the phase
            # with DL edge (x, y, B) is entailed by any derived bound
            # W <= B on the path pair (y, x).  Skipped entirely when the
            # channel is off, so the A/B baseline pays nothing.
            dl_watches = self._dl_watches
            for lit, action in ((2 * sat_var, pos), (2 * sat_var + 1, neg)):
                x, y = action.dl_x, action.dl_y
                entry = (sat_var, lit, action)
                pair = dl_watches.get((y, x))
                if pair is None:
                    dl_watches[(y, x)] = [entry]
                else:
                    pair.append(entry)
                dl.watch_pair(y, x, action.dl_bound)

    def _sync_scales(self) -> None:
        """Bring every stored pair to the engines' current scales.

        Called right after the only two things that can grow a scale —
        an atom registering and ``Simplex.check()`` — so ``on_assert``
        and ``propagate`` never meet a pair in stale units.  Almost
        always two integer compares; after the rare growth, one pass
        that multiplies by the (integer) growth factor.
        """
        sx_scale, dl_scale = self.simplex.scale, self.dl.scale
        if sx_scale == self._sx_scale and dl_scale == self._dl_scale:
            return
        sx_k = sx_scale // self._sx_scale
        dl_k = dl_scale // self._dl_scale
        for watch in self._atoms.values():
            for action in (watch.pos, watch.neg):
                r, d = action.sx_bound
                action.sx_bound = (r * sx_k, d * sx_k)
                if action.dl_bound is not None:
                    r, d = action.dl_bound
                    action.dl_bound = (r * dl_k, d * dl_k)
        self._sx_scale, self._dl_scale = sx_scale, dl_scale

    def _slack_for(self, coeffs: Tuple[Tuple[RealVar, Rational], ...]) -> Tuple[int, bool]:
        """Canonical slack variable for a coefficient vector.

        Returns ``(simplex_var, flipped)``: vectors that differ only by an
        overall sign share the canonical variable (leading coefficient
        positive); ``flipped`` tells the caller to negate bounds/senses.
        """
        flip = coeffs[0][1] < 0
        if flip:
            coeffs = tuple([(v, -c) for v, c in coeffs])
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
        watch = self._atoms.get(var_of(literal))
        if watch is None:
            return None
        action = watch.pos if is_positive(literal) else watch.neg
        if action.dl_bound is not None:
            conflict = self.dl.assert_constraint(
                action.dl_x, action.dl_y, action.dl_bound, literal)
            if conflict is not None:
                return conflict
        if action.sx_is_upper:
            conflict = self.simplex.assert_upper(action.sx_var, action.sx_bound, literal)
        else:
            conflict = self.simplex.assert_lower(action.sx_var, action.sx_bound, literal)
        if conflict is not None:
            return conflict
        if watch.general:
            return self._simplex_check()
        return None

    def _simplex_check(self) -> Optional[List[int]]:
        """``Simplex.check()``, then the scale sync its pivots may need."""
        conflict = self.simplex.check()
        self._sync_scales()
        return conflict

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
                dl_watches = self._dl_watches
                for entry in entries:
                    watches = dl_watches.get((entry.src, entry.dst))
                    if not watches:
                        continue
                    derived = (entry.wr, entry.wd)
                    for sat_var, lit, action in watches:
                        if assigns[sat_var] != unassigned:
                            continue
                        if derived <= action.dl_bound:
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
            lo, up = sx.scaled_bounds(var)
            lo_lit = sx.lower_literal(var)
            up_lit = sx.upper_literal(var)
            for w in watches:
                if assigns[w.sat_var] != unassigned:
                    continue
                if w.pos_is_upper:
                    # pos: var <= pos bound; neg: var >= neg bound.
                    if up is not None and up_lit != NO_LIT and up <= w.pos.sx_bound:
                        out.append((w.pos_lit, (up_lit,)))
                    elif lo is not None and lo_lit != NO_LIT and lo >= w.neg.sx_bound:
                        out.append((w.neg_lit, (lo_lit,)))
                else:
                    # pos: var >= pos bound; neg: var <= neg bound.
                    if lo is not None and lo_lit != NO_LIT and lo >= w.pos.sx_bound:
                        out.append((w.pos_lit, (lo_lit,)))
                    elif up is not None and up_lit != NO_LIT and up <= w.neg.sx_bound:
                        out.append((w.neg_lit, (up_lit,)))
        touched.clear()
        return out

    def final_check(self) -> Optional[List[int]]:
        conflict = self._simplex_check()
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


def _quotient(a: Rational, b: Rational) -> Fraction:
    """``a / b`` exactly: an integral coefficient is a plain ``int``, and
    ``/`` on two ``int`` values gives a ``float``."""
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)
