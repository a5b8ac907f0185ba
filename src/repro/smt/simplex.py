"""General simplex for linear real arithmetic (Dutertre & de Moura, 2006).

This is the *certifying* theory engine of the SMT substrate: it decides
conjunctions of bounds over variables related by linear rows, exactly,
over ``Q + Q*delta`` (strict inequalities are bounds with a ``delta``
part, see :class:`~repro.smt.rationals.DeltaRational`).  The
difference-logic engine
(:mod:`repro.smt.difflogic`) catches most scheduling conflicts eagerly; the
simplex handles the paper's non-unit-coefficient *stability* atoms
(``(1-a)*Lmin + a*Lmax <= b``) and certifies full assignments.

The solver state is backtrackable via a bound trail (:meth:`mark` /
:meth:`undo_to`); the tableau itself is never undone because pivoting is an
equivalence transformation and rows are definitional.

Hot-path layout
---------------

All per-variable state lives in flat parallel lists indexed by variable:
``beta`` is split into its rational and delta components (two lists) so
the pivot/update loops allocate nothing, and delta-component work is
skipped entirely when the delta part of an update is zero (the common
case).  Candidate violated variables are kept in a lazy min-heap (Bland's
rule pops the smallest index directly — no ``sorted()`` per pivot
iteration).

Number representation
---------------------

Every value and bound is an **integer pair over one engine scale** ``S``
(:class:`~repro.smt.rationals.ScaledEngine`, the same units the
difference-logic engine runs on): ``beta`` holds ``(real*S, delta*S)``
split over its two lists, a bound is one ``(real*S, delta*S)`` tuple, so
the delta-rational order is the tuples' lexicographic order and a bound
assertion, the Bland scan and a beta update are integer adds, multiplies
and compares — no ``Fraction`` exists between ``assert_*`` and the return
of ``check()``.  Bounds come in pre-scaled (:meth:`Simplex.scaled_bound`
folds their denominators into ``S`` when they are registered, not when
they are asserted).  Inside ``check()`` the scale grows only when a
tableau step ``step * coeff / den`` would leave a remainder; the factor
that removes the remainder is computed *before* the division
(:meth:`Simplex._step_factor`), every stored value is multiplied by it
(:meth:`Simplex._rescale`), and only then is ``//`` taken — so each
``//`` on solver state is exact by construction and nothing is ever
rounded.  A rescale multiplies both sides of every comparison by the same
positive integer: Bland's rule sees the same signs and takes the same
pivots as a ``Fraction`` engine.  ``model()``, ``value()`` and the bound
getters convert back to ``Fraction`` / ``DeltaRational`` (cold API).

Tableau rows are fraction-free: a basic variable's row is a dict of
``int`` numerators plus one positive ``int`` denominator for the whole
row (``basic = sum(num[v] * x_v) / den``), so row substitution — the
inner loop of a pivot — is machine-integer multiply/add with no
``Fraction`` allocated per entry.  The paper's inputs make almost every
coefficient ±1, so ``den`` is almost always 1 and nothing else happens;
when it is not, the row is brought back to lowest terms with one
``gcd(den, *numerators)`` after the substitution (:meth:`Simplex._reduce`).
Lowest terms make the representation canonical: ``Fraction(num, den)``
of every entry is exactly the coefficient a ``Fraction`` tableau would
hold, entries vanish in the same places, and signs agree, so the pivot
rule sees the same tableau and takes the same pivots.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .rationals import DeltaRational, Scaled, ScaledEngine, materialize_gaps

NO_LIT = -1


class Simplex(ScaledEngine):
    """Incremental simplex over ``Q + Q*delta`` with conflict explanations."""

    def __init__(self) -> None:
        super().__init__()
        self._n = 0
        # Bounds as (real*S, delta*S) tuples: their lexicographic order
        # is the delta-rational order.
        self._lower: List[Optional[Scaled]] = []
        self._upper: List[Optional[Scaled]] = []
        self._lower_lit: List[int] = []
        self._upper_lit: List[int] = []
        # beta in the same scale, split into parallel components.
        self._beta_r: List[int] = []
        self._beta_d: List[int] = []
        self._is_basic: List[bool] = []
        # For basic variables: row mapping nonbasic var -> integer
        # numerator (None for nonbasic variables), over the row's one
        # positive denominator in ``_dens`` (1 for nonbasic variables):
        # basic = sum(num * x) / den, gcd(den, *nums) == 1.
        self._rows: List[Optional[Dict[int, int]]] = []
        self._dens: List[int] = []
        # For nonbasic variables: set of basic variables whose row uses them.
        self._cols: List[Set[int]] = []
        # Bound-change trail, one entry per assert: None when the assert
        # tightened nothing, else
        # (var, is_lower, old_bound, old_scale, old_lit, touched) where
        # ``old_scale`` is the scale ``old_bound`` was parked in (undo
        # brings it to the current one; the trail is never rewritten by a
        # rescale) and ``touched`` records that this assertion added
        # ``var`` to ``touched_bounds`` — undo then removes it again, so
        # a backjump never leaves stale entries for the propagation layer
        # to rescan.
        self._trail: List[
            Optional[Tuple[int, bool, Optional[Scaled], int, int, bool]]
        ] = []
        # Nonbasic variables whose beta may violate a freshly tightened
        # bound; repaired lazily at the start of check().
        self._dirty: Set[int] = set()
        # Basic variables whose beta or bounds changed since the last
        # check(): the only candidates for bound violations (avoids a full
        # O(n) scan per pivot iteration).  Invariant: every violating
        # basic variable is in this set.  Mirrored as a min-heap so Bland's
        # rule pops the smallest suspect index without sorting.
        self._suspects: Set[int] = set()
        self._suspects_heap: List[int] = []
        # Variables whose bound was tightened since the last drain — the
        # theory-propagation layer consumes this (see LraTheory.propagate).
        # Only *watched* variables (see watch_var) are tracked: bound
        # tightenings on anything else can never imply a registered atom,
        # and the per-assert set-add plus per-fixpoint drain would dominate
        # the hook's cost.
        self.touched_bounds: Set[int] = set()
        self._watched: List[bool] = []
        #: Pivots performed so far (read by benchmarks/simplex_pivots.py).
        self.pivots = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh structural (nonbasic) variable."""
        idx = self._n
        self._n += 1
        self._lower.append(None)
        self._upper.append(None)
        self._lower_lit.append(NO_LIT)
        self._upper_lit.append(NO_LIT)
        self._beta_r.append(0)
        self._beta_d.append(0)
        self._is_basic.append(False)
        self._rows.append(None)
        self._dens.append(1)
        self._cols.append(set())
        self._watched.append(False)
        return idx

    def watch_var(self, var: int) -> None:
        """Report bound tightenings of ``var`` through ``touched_bounds``."""
        self._watched[var] = True

    def add_row(self, coeffs: Dict[int, Fraction]) -> int:
        """Introduce a slack variable ``s = sum(coeffs)`` and return it.

        Any *basic* variable appearing in ``coeffs`` is substituted by its
        defining row so the new row mentions only nonbasic variables.
        """
        is_basic, rows, dens = self._is_basic, self._rows, self._dens
        # One denominator every term divides, so the expansion is all-int
        # (``dens`` is 1 for a nonbasic variable).
        den = 1
        for var, coeff in coeffs.items():
            den = lcm(den, coeff.denominator * dens[var])
        expanded: Dict[int, int] = {}
        for var, coeff in coeffs.items():
            if coeff == 0:
                continue
            scale = coeff.numerator * (den // (coeff.denominator * dens[var]))
            if is_basic[var]:
                for v2, n2 in rows[var].items():
                    expanded[v2] = expanded.get(v2, 0) + scale * n2
            else:
                expanded[var] = expanded.get(var, 0) + scale
        expanded = {v: n for v, n in expanded.items() if n}
        s = self.new_var()
        is_basic[s] = True
        rows[s] = expanded
        dens[s] = den
        self._reduce(s)
        for v in expanded:
            self._cols[v].add(s)
        r, d = self._row_sum(s)
        den = dens[s]
        if den != 1:
            factor = _divisible_by(den, r, d)
            if factor != 1:
                self._rescale(factor)
                r *= factor
                d *= factor
            r //= den
            d //= den
        self._beta_r[s] = r
        self._beta_d[s] = d
        return s

    def _reduce(self, basic: int) -> None:
        """Bring ``basic``'s row back to lowest terms (no-op when den is 1)."""
        den = self._dens[basic]
        if den != 1:
            row = self._rows[basic]
            g = gcd(den, *row.values())
            if g != 1:
                self._dens[basic] = den // g
                for v in row:
                    row[v] //= g

    def _row_sum(self, basic: int) -> Scaled:
        """``den * (value of basic's row)``: the numerators over beta."""
        total_r = total_d = 0
        beta_r, beta_d = self._beta_r, self._beta_d
        for v, n in self._rows[basic].items():
            total_r += beta_r[v] * n
            total_d += beta_d[v] * n
        return total_r, total_d

    # ------------------------------------------------------------------
    # Scale growth
    # ------------------------------------------------------------------

    def _rescale(self, factor: int) -> None:
        """Multiply the engine scale (and every stored value) by ``factor``.

        In place, so list aliases held by a caller in mid-update stay
        valid; *tuples* read before the call (a bound, a target value)
        are in the old scale and must be multiplied or read again.
        Parked trail bounds are brought up to date by ``undo_to``.
        """
        self._scale *= factor
        self._beta_r[:] = [r * factor for r in self._beta_r]
        self._beta_d[:] = [d * factor for d in self._beta_d]
        self._lower[:] = [b and (b[0] * factor, b[1] * factor)
                          for b in self._lower]
        self._upper[:] = [b and (b[0] * factor, b[1] * factor)
                          for b in self._upper]

    def _step_factor(self, nonbasic: int, step_r: int, step_d: int) -> int:
        """Scale factor under which moving ``nonbasic`` by the given step
        moves every basic variable that uses it by an integer.

        A row ``b = sum(num * x) / den`` moves by ``step * num / den``;
        the lcm of what each user needs serves them all.  1 whenever
        every ``den`` is 1.
        """
        factor = 1
        rows, dens = self._rows, self._dens
        for b in self._cols[nonbasic]:
            den = dens[b]
            if den != 1:
                c = rows[b][nonbasic]
                factor = lcm(factor, _divisible_by(den, step_r * c, step_d * c))
        return factor

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        scale = self._scale
        trail = self._trail
        while len(trail) > mark:
            entry = trail.pop()
            if entry is None:
                continue  # an assert that tightened nothing
            var, is_lower, old_bound, old_scale, old_lit, touched = entry
            if touched:
                # This assertion was the one that marked ``var`` touched:
                # un-mark it, so the next propagate() fixpoint does not
                # rescan watches against the now-relaxed bound.
                self.touched_bounds.discard(var)
            if old_scale != scale and old_bound is not None:
                # Parked before a rescale: the scale only grows by
                # integer factors, so this division is exact.
                k = scale // old_scale
                old_bound = (old_bound[0] * k, old_bound[1] * k)
            if is_lower:
                self._lower[var] = old_bound
                self._lower_lit[var] = old_lit
            else:
                self._upper[var] = old_bound
                self._upper_lit[var] = old_lit

    # ------------------------------------------------------------------
    # Bound assertion
    # ------------------------------------------------------------------

    def assert_lower(self, var: int, bound: Scaled, lit: int) -> Optional[List[int]]:
        """Assert ``var >= bound``; returns a conflict explanation or None.

        ``bound`` is a :meth:`scaled_bound` pair *in the current scale*
        (callers that keep pairs across a scale growth multiply them up,
        see :class:`~repro.smt.rationals.ScaledEngine`).
        """
        upper = self._upper[var]
        if upper is not None and bound > upper:
            return self._pair_conflict(lit, self._upper_lit[var])
        current = self._lower[var]
        if current is not None and bound <= current:
            # No tighter than the active bound: nothing changes and
            # nothing is parked, but every assert leaves one entry, so
            # the caller's marks stay aligned with its assertion counts.
            self._trail.append(None)
            return None
        fresh_touch = self._watched[var] and var not in self.touched_bounds
        self._trail.append(
            (var, True, current, self._scale, self._lower_lit[var],
             fresh_touch)
        )
        self._lower[var] = bound
        self._lower_lit[var] = lit
        if fresh_touch:
            self.touched_bounds.add(var)
        if self._is_basic[var]:
            self._add_suspect(var)
        elif self._below(var, bound):
            self._dirty.add(var)
        return None

    def assert_upper(self, var: int, bound: Scaled, lit: int) -> Optional[List[int]]:
        """Assert ``var <= bound``; returns a conflict explanation or None."""
        lower = self._lower[var]
        if lower is not None and bound < lower:
            return self._pair_conflict(lit, self._lower_lit[var])
        current = self._upper[var]
        if current is not None and bound >= current:
            self._trail.append(None)    # tightens nothing, see assert_lower
            return None
        fresh_touch = self._watched[var] and var not in self.touched_bounds
        self._trail.append(
            (var, False, current, self._scale, self._upper_lit[var],
             fresh_touch)
        )
        self._upper[var] = bound
        self._upper_lit[var] = lit
        if fresh_touch:
            self.touched_bounds.add(var)
        if self._is_basic[var]:
            self._add_suspect(var)
        elif self._above(var, bound):
            self._dirty.add(var)
        return None

    @staticmethod
    def _pair_conflict(lit_a: int, lit_b: int) -> List[int]:
        return [l for l in (lit_a, lit_b) if l != NO_LIT]

    def _add_suspect(self, var: int) -> None:
        if var not in self._suspects:
            self._suspects.add(var)
            heappush(self._suspects_heap, var)

    # -- beta/bound comparisons (same scale: lexicographic on ints) ----

    def _below(self, var: int, bound: Scaled) -> bool:
        """beta[var] < bound?"""
        r = self._beta_r[var]
        return r < bound[0] or (r == bound[0] and self._beta_d[var] < bound[1])

    def _above(self, var: int, bound: Scaled) -> bool:
        """beta[var] > bound?"""
        r = self._beta_r[var]
        return r > bound[0] or (r == bound[0] and self._beta_d[var] > bound[1])

    def _update(self, nonbasic: int, value: Scaled) -> None:
        beta_r, beta_d = self._beta_r, self._beta_d
        value_r, value_d = value
        delta_r = value_r - beta_r[nonbasic]
        delta_d = value_d - beta_d[nonbasic]
        factor = self._step_factor(nonbasic, delta_r, delta_d)
        if factor != 1:
            self._rescale(factor)
            value_r *= factor
            value_d *= factor
            delta_r *= factor
            delta_d *= factor
        beta_r[nonbasic] = value_r
        beta_d[nonbasic] = value_d
        rows, dens = self._rows, self._dens
        for basic in self._cols[nonbasic]:
            # Exact: _step_factor made every den divide its product.
            den = dens[basic]
            coeff = rows[basic][nonbasic]
            if den == 1:
                beta_r[basic] += delta_r * coeff
                if delta_d:
                    beta_d[basic] += delta_d * coeff
            else:
                beta_r[basic] += delta_r * coeff // den
                beta_d[basic] += delta_d * coeff // den
            self._add_suspect(basic)

    # ------------------------------------------------------------------
    # Check (Bland's rule)
    # ------------------------------------------------------------------

    def check(self) -> Optional[List[int]]:
        """Restore all basic variables into their bounds.

        Returns None when the current bound set is satisfiable (``beta`` is
        then a model), otherwise a conflict explanation: the list of
        asserted-literal ids of an infeasible bound subset (Farkas row).

        Bound assertions are lazy: nonbasic variables whose value drifted
        outside their (possibly backtracked-and-retightened) bounds are
        repaired here first, then the classic Bland pivoting runs.
        """
        if self._dirty:
            for var in self._dirty:
                if self._is_basic[var]:
                    continue
                lo, up = self._lower[var], self._upper[var]
                if lo is not None and self._below(var, lo):
                    self._update(var, lo)
                elif up is not None and self._above(var, up):
                    self._update(var, up)
            self._dirty.clear()
        suspects, heap = self._suspects, self._suspects_heap
        while True:
            # Bland's rule over the suspect set: the smallest-index
            # violating basic variable (every violating basic is a
            # suspect by the maintenance invariant).
            violating = -1
            below = False
            while heap:
                var = heappop(heap)
                if var not in suspects:
                    continue  # stale heap entry (already popped once)
                suspects.discard(var)
                if not self._is_basic[var]:
                    continue
                lo, up = self._lower[var], self._upper[var]
                if lo is not None and self._below(var, lo):
                    violating, below = var, True
                    break
                if up is not None and self._above(var, up):
                    violating, below = var, False
                    break
            if violating < 0:
                return None
            row = self._rows[violating]
            pivot_var = -1
            if below:
                target = self._lower[violating]
                for v, c in row.items():
                    if (pivot_var < 0 or v < pivot_var) and (
                        self._can_increase(v) if c > 0 else self._can_decrease(v)
                    ):
                        pivot_var = v
                if pivot_var < 0:
                    # Still violating after the caller backtracks (bounds
                    # only relax on undo): keep the suspect invariant.
                    self._add_suspect(violating)
                    return self._explain(violating, below=True)
            else:
                target = self._upper[violating]
                for v, c in row.items():
                    if (pivot_var < 0 or v < pivot_var) and (
                        self._can_decrease(v) if c > 0 else self._can_increase(v)
                    ):
                        pivot_var = v
                if pivot_var < 0:
                    self._add_suspect(violating)
                    return self._explain(violating, below=False)
            assert target is not None
            self._pivot_and_update(violating, pivot_var, target)

    def _can_increase(self, var: int) -> bool:
        up = self._upper[var]
        return up is None or self._below(var, up)

    def _can_decrease(self, var: int) -> bool:
        lo = self._lower[var]
        return lo is None or self._above(var, lo)

    def _explain(self, basic: int, below: bool) -> List[int]:
        """Farkas conflict: the violated bound plus the blocking bounds."""
        lits = []
        if below:
            lits.append(self._lower_lit[basic])
            for v, c in self._rows[basic].items():
                lits.append(self._upper_lit[v] if c > 0 else self._lower_lit[v])
        else:
            lits.append(self._upper_lit[basic])
            for v, c in self._rows[basic].items():
                lits.append(self._lower_lit[v] if c > 0 else self._upper_lit[v])
        seen = set()
        out = []
        for l in lits:
            if l != NO_LIT and l not in seen:
                seen.add(l)
                out.append(l)
        return out

    def _pivot_and_update(self, basic: int, nonbasic: int, value: Scaled) -> None:
        """Swap ``basic``/``nonbasic`` and set the old basic var to ``value``."""
        self.pivots += 1
        beta_r, beta_d = self._beta_r, self._beta_d
        rows, dens, cols = self._rows, self._dens, self._cols
        row = rows[basic]
        den = dens[basic]
        a = row[nonbasic]
        # Solve the row for `nonbasic`:
        #   nonbasic = (den*basic - sum(others)) / a,
        # with the sign of `a` moved into the numerators so the new
        # denominator stays positive.  gcd(den, *row) == 1 makes the new
        # row lowest-terms as it stands.
        sign = 1 if a > 0 else -1
        new_den = sign * a
        new_row: Dict[int, int] = {basic: sign * den}
        for v, c in row.items():
            if v != nonbasic:
                new_row[v] = -sign * c
        # Update beta before rewiring: theta, the change of nonbasic, is
        # (value - beta[basic]) * den / a.  Grow the scale first, by what
        # that division and then the users' `theta * coeff / den_b` need.
        value_r, value_d = value
        theta_r = (value_r - beta_r[basic]) * den
        theta_d = (value_d - beta_d[basic]) * den
        factor = 1 if new_den == 1 else _divisible_by(new_den, theta_r, theta_d)
        theta_r = theta_r * factor // a
        theta_d = theta_d * factor // a
        users_factor = self._step_factor(nonbasic, theta_r, theta_d)
        if users_factor != 1:
            theta_r *= users_factor
            theta_d *= users_factor
            factor *= users_factor
        if factor != 1:
            self._rescale(factor)
            value_r *= factor
            value_d *= factor
        beta_r[basic] = value_r
        beta_d[basic] = value_d
        beta_r[nonbasic] += theta_r
        beta_d[nonbasic] += theta_d
        # Incrementally adjust every other basic row that uses `nonbasic`
        # (cheaper than recomputing whole row values after substitution).
        for b in cols[nonbasic]:
            if b != basic:
                bden = dens[b]
                coeff = rows[b][nonbasic]
                if bden == 1:
                    beta_r[b] += theta_r * coeff
                    if theta_d:
                        beta_d[b] += theta_d * coeff
                else:
                    beta_r[b] += theta_r * coeff // bden
                    beta_d[b] += theta_d * coeff // bden
                self._add_suspect(b)
        # The entering variable may now violate its own bounds.
        self._add_suspect(nonbasic)
        # Rewire column index for the departing/incoming variables.
        rows[basic] = None
        dens[basic] = 1
        for v in row:
            cols[v].discard(basic)
        self._is_basic[basic] = False
        self._is_basic[nonbasic] = True
        cols[basic] = set()
        rows[nonbasic] = new_row
        dens[nonbasic] = new_den
        for v in new_row:
            cols[v].add(nonbasic)
        # Substitute `nonbasic` in every other row that used it.  All-int:
        # b = (new_den*sum(brow) + k*sum(new_row)) / (dens[b]*new_den).
        users = [b for b in cols[nonbasic] if b != nonbasic]
        cols[nonbasic] = set()
        for b in users:
            brow = rows[b]
            k = brow.pop(nonbasic)
            if new_den != 1:
                for v in brow:
                    brow[v] *= new_den
                dens[b] *= new_den
            for v, c in new_row.items():
                nc = brow.get(v, 0) + k * c
                if nc:
                    brow[v] = nc
                    cols[v].add(b)
                else:
                    brow.pop(v, None)
                    cols[v].discard(b)
            self._reduce(b)

    # ------------------------------------------------------------------
    # Model extraction
    # ------------------------------------------------------------------

    def model(self) -> List[Fraction]:
        """Concrete rational values for all variables (delta materialized)."""
        beta_r, beta_d = self._beta_r, self._beta_d
        eps = materialize_gaps(self._bound_gaps())
        # beta/S at delta = num/den, one Fraction per variable.
        num, den = eps.numerator, eps.denominator
        unit = self._scale * den
        return [Fraction(r * den + d * num, unit)
                for r, d in zip(beta_r, beta_d)]

    def _bound_gaps(self) -> Iterator[Scaled]:
        """``(dreal, ddelta)`` of every (lower, beta) and (beta, upper)."""
        beta_r, beta_d = self._beta_r, self._beta_d
        for var in range(self._n):
            lo, up = self._lower[var], self._upper[var]
            if lo is not None:
                yield beta_r[var] - lo[0], lo[1] - beta_d[var]
            if up is not None:
                yield up[0] - beta_r[var], beta_d[var] - up[1]

    def _unscaled(self, pair: Scaled) -> DeltaRational:
        return DeltaRational(Fraction(pair[0], self._scale),
                             Fraction(pair[1], self._scale))

    def value(self, var: int) -> DeltaRational:
        return self._unscaled((self._beta_r[var], self._beta_d[var]))

    def lower_bound(self, var: int) -> Optional[DeltaRational]:
        """Currently asserted lower bound (None if unbounded below)."""
        lo = self._lower[var]
        return None if lo is None else self._unscaled(lo)

    def upper_bound(self, var: int) -> Optional[DeltaRational]:
        """Currently asserted upper bound (None if unbounded above)."""
        up = self._upper[var]
        return None if up is None else self._unscaled(up)

    def scaled_bounds(self, var: int) -> Tuple[Optional[Scaled], Optional[Scaled]]:
        """``(lower, upper)`` of ``var`` as pairs in the current scale."""
        return self._lower[var], self._upper[var]

    def lower_literal(self, var: int) -> int:
        """Literal id that asserted the current lower bound (or NO_LIT)."""
        return self._lower_lit[var]

    def upper_literal(self, var: int) -> int:
        """Literal id that asserted the current upper bound (or NO_LIT)."""
        return self._upper_lit[var]

    # ------------------------------------------------------------------
    # Debug helpers
    # ------------------------------------------------------------------

    def assignment_consistent(self) -> bool:
        """Check that beta satisfies all rows (invariant; for tests)."""
        for basic, row in enumerate(self._rows):
            if row is None:
                continue
            den = self._dens[basic]
            if self._row_sum(basic) != (self._beta_r[basic] * den,
                                        self._beta_d[basic] * den):
                return False
        return True

    def bounds_satisfied(self) -> bool:
        """Check that beta satisfies all bounds (true right after check())."""
        for var in range(self._n):
            lo, up = self._lower[var], self._upper[var]
            if lo is not None and self._below(var, lo):
                return False
            if up is not None and self._above(var, up):
                return False
        return True

    def suspects_invariant_holds(self) -> bool:
        """Every violating basic variable is in the suspect set (for tests)."""
        for var in range(self._n):
            if not self._is_basic[var]:
                continue
            lo, up = self._lower[var], self._upper[var]
            violated = (lo is not None and self._below(var, lo)) or (
                up is not None and self._above(var, up)
            )
            if violated and var not in self._suspects:
                return False
        return True

    def dirty_invariant_holds(self) -> bool:
        """Every out-of-bounds *nonbasic* variable is marked dirty."""
        for var in range(self._n):
            if self._is_basic[var]:
                continue
            lo, up = self._lower[var], self._upper[var]
            violated = (lo is not None and self._below(var, lo)) or (
                up is not None and self._above(var, up)
            )
            if violated and var not in self._dirty:
                return False
        return True


def _divisible_by(den: int, r: int, d: int) -> int:
    """The least factor ``f`` that makes ``f*r`` and ``f*d`` multiples of
    ``den`` — what a scale must grow by before ``// den`` is exact."""
    return lcm(den // gcd(den, r), den // gcd(den, d))
