"""General simplex for linear real arithmetic (Dutertre & de Moura, 2006).

This is the *certifying* theory engine of the SMT substrate: it decides
conjunctions of bounds over variables related by linear rows, with exact
``Fraction`` arithmetic and :class:`~repro.smt.rationals.DeltaRational`
bounds for strict inequalities.  The difference-logic engine
(:mod:`repro.smt.difflogic`) catches most scheduling conflicts eagerly; the
simplex handles the paper's non-unit-coefficient *stability* atoms
(``(1-a)*Lmin + a*Lmax <= b``) and certifies full assignments.

The solver state is backtrackable via a bound trail (:meth:`mark` /
:meth:`undo_to`); the tableau itself is never undone because pivoting is an
equivalence transformation and rows are definitional.

Hot-path layout
---------------

All per-variable state lives in flat parallel lists indexed by variable:
``beta`` is split into its rational and delta components (two ``Fraction``
lists) so the pivot/update loops do plain Fraction adds with **no
DeltaRational allocation**, and delta-component work is skipped entirely
when the delta part of an update is zero (the common case).  Candidate
violated variables are kept in a lazy min-heap (Bland's rule pops the
smallest index directly — no ``sorted()`` per pivot iteration).

Tableau rows are fraction-free: a basic variable's row is a dict of
``int`` numerators plus one positive ``int`` denominator for the whole
row (``basic = sum(num[v] * x_v) / den``), so row substitution — the
inner loop of a pivot — is machine-integer multiply/add with no
``Fraction`` allocated per entry.  The paper's inputs make almost every
coefficient ±1, so ``den`` is almost always 1 and nothing else happens;
when it is not, the row is brought back to lowest terms with one
``gcd(den, *numerators)`` after the substitution (:meth:`_reduce`).
Lowest terms make the representation canonical: ``Fraction(num, den)``
of every entry is exactly the coefficient a ``Fraction`` tableau would
hold, entries vanish in the same places, and signs agree, so the pivot
rule sees the same tableau and takes the same pivots.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from typing import Dict, List, Optional, Set, Tuple

from .rationals import DeltaRational, materialize_delta

NO_LIT = -1


class Simplex:
    """Incremental simplex over ``Q + Q*delta`` with conflict explanations."""

    def __init__(self) -> None:
        self._n = 0
        # Bounds as DeltaRational (assertions are rare; comparisons on the
        # hot path read .real/.delta directly).
        self._lower: List[Optional[DeltaRational]] = []
        self._upper: List[Optional[DeltaRational]] = []
        self._lower_lit: List[int] = []
        self._upper_lit: List[int] = []
        # beta split into parallel Fraction components.
        self._beta_r: List[Fraction] = []
        self._beta_d: List[Fraction] = []
        self._is_basic: List[bool] = []
        # For basic variables: row mapping nonbasic var -> integer
        # numerator (None for nonbasic variables), over the row's one
        # positive denominator in ``_dens`` (1 for nonbasic variables):
        # basic = sum(num * x) / den, gcd(den, *nums) == 1.
        self._rows: List[Optional[Dict[int, int]]] = []
        self._dens: List[int] = []
        # For nonbasic variables: set of basic variables whose row uses them.
        self._cols: List[Set[int]] = []
        # Bound-change trail: (var, is_lower, old_bound, old_lit, touched)
        # where ``touched`` records that this assertion added ``var`` to
        # ``touched_bounds`` — undo then removes it again, so a backjump
        # never leaves stale entries for the propagation layer to rescan.
        self._trail: List[
            Tuple[int, bool, Optional[DeltaRational], int, bool]
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
        self._beta_r.append(_F0)
        self._beta_d.append(_F0)
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
        r, d = self._row_value(s)
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

    def _row_value(self, basic: int) -> Tuple[Fraction, Fraction]:
        total_r = _F0
        total_d = _F0
        beta_r, beta_d = self._beta_r, self._beta_d
        for v, n in self._rows[basic].items():
            # A fresh slack row sits over mostly-zero betas: skip those
            # instead of multiplying Fractions by them.
            r, d = beta_r[v], beta_d[v]
            if r:
                total_r += r * n
            if d:
                total_d += d * n
        den = self._dens[basic]
        if den != 1:
            inv = Fraction(1, den)
            total_r *= inv
            total_d *= inv
        return total_r, total_d

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            var, is_lower, old_bound, old_lit, touched = self._trail.pop()
            if touched:
                # This assertion was the one that marked ``var`` touched:
                # un-mark it, so the next propagate() fixpoint does not
                # rescan watches against the now-relaxed bound.
                self.touched_bounds.discard(var)
            if is_lower:
                self._lower[var] = old_bound
                self._lower_lit[var] = old_lit
            else:
                self._upper[var] = old_bound
                self._upper_lit[var] = old_lit

    # ------------------------------------------------------------------
    # Bound assertion
    # ------------------------------------------------------------------

    def assert_lower(self, var: int, bound: DeltaRational, lit: int) -> Optional[List[int]]:
        """Assert ``var >= bound``; returns a conflict explanation or None."""
        upper = self._upper[var]
        if upper is not None and bound > upper:
            return self._pair_conflict(lit, self._upper_lit[var])
        current = self._lower[var]
        tightens = current is None or bound > current
        fresh_touch = (tightens and self._watched[var]
                       and var not in self.touched_bounds)
        self._trail.append(
            (var, True, current, self._lower_lit[var], fresh_touch)
        )
        if tightens:
            self._lower[var] = bound
            self._lower_lit[var] = lit
            if fresh_touch:
                self.touched_bounds.add(var)
            if self._is_basic[var]:
                self._add_suspect(var)
            elif self._below(var, bound):
                self._dirty.add(var)
        return None

    def assert_upper(self, var: int, bound: DeltaRational, lit: int) -> Optional[List[int]]:
        """Assert ``var <= bound``; returns a conflict explanation or None."""
        lower = self._lower[var]
        if lower is not None and bound < lower:
            return self._pair_conflict(lit, self._lower_lit[var])
        current = self._upper[var]
        tightens = current is None or bound < current
        fresh_touch = (tightens and self._watched[var]
                       and var not in self.touched_bounds)
        self._trail.append(
            (var, False, current, self._upper_lit[var], fresh_touch)
        )
        if tightens:
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

    # -- beta/bound comparisons (no DeltaRational allocation) ----------

    def _below(self, var: int, bound: DeltaRational) -> bool:
        """beta[var] < bound?"""
        r = self._beta_r[var]
        br = bound.real
        lhs = r.numerator * br.denominator
        rhs = br.numerator * r.denominator
        if lhs != rhs:
            return lhs < rhs
        d = self._beta_d[var]
        bd = bound.delta
        return d.numerator * bd.denominator < bd.numerator * d.denominator

    def _above(self, var: int, bound: DeltaRational) -> bool:
        """beta[var] > bound?"""
        r = self._beta_r[var]
        br = bound.real
        lhs = r.numerator * br.denominator
        rhs = br.numerator * r.denominator
        if lhs != rhs:
            return lhs > rhs
        d = self._beta_d[var]
        bd = bound.delta
        return d.numerator * bd.denominator > bd.numerator * d.denominator

    def _update(self, nonbasic: int, value: DeltaRational) -> None:
        beta_r, beta_d = self._beta_r, self._beta_d
        delta_r = value.real - beta_r[nonbasic]
        delta_d = value.delta - beta_d[nonbasic]
        beta_r[nonbasic] = value.real
        beta_d[nonbasic] = value.delta
        rows, dens = self._rows, self._dens
        zero_d = not delta_d
        for basic in self._cols[nonbasic]:
            den = dens[basic]
            coeff = rows[basic][nonbasic]
            if den != 1:
                coeff = Fraction(coeff, den)
            beta_r[basic] += delta_r * coeff
            if not zero_d:
                beta_d[basic] += delta_d * coeff
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

    def _pivot_and_update(self, basic: int, nonbasic: int, value: DeltaRational) -> None:
        """Swap ``basic``/``nonbasic`` and set the old basic var to ``value``."""
        self.pivots += 1
        beta_r, beta_d = self._beta_r, self._beta_d
        rows, dens, cols = self._rows, self._dens, self._cols
        row = rows[basic]
        den = dens[basic]
        rows[basic] = None
        dens[basic] = 1
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
        # Update beta before rewiring (theta = change of nonbasic).
        inv_a = Fraction(den, a)
        theta_r = (value.real - beta_r[basic]) * inv_a
        theta_d = (value.delta - beta_d[basic]) * inv_a
        beta_r[basic] = value.real
        beta_d[basic] = value.delta
        beta_r[nonbasic] += theta_r
        beta_d[nonbasic] += theta_d
        # Incrementally adjust every other basic row that uses `nonbasic`
        # (cheaper than recomputing whole row values after substitution).
        zero_d = not theta_d
        for b in cols[nonbasic]:
            if b != basic:
                bden = dens[b]
                coeff = rows[b][nonbasic]
                if bden != 1:
                    coeff = Fraction(coeff, bden)
                beta_r[b] += theta_r * coeff
                if not zero_d:
                    beta_d[b] += theta_d * coeff
                self._add_suspect(b)
        # The entering variable may now violate its own bounds.
        self._add_suspect(nonbasic)
        # Rewire column index for the departing/incoming variables.
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
        pairs = []
        for var in range(self._n):
            lo, up = self._lower[var], self._upper[var]
            beta = DeltaRational(self._beta_r[var], self._beta_d[var])
            if lo is not None:
                pairs.append((lo, beta))
            if up is not None:
                pairs.append((beta, up))
        eps = materialize_delta(pairs)
        return [
            self._beta_r[var] + self._beta_d[var] * eps
            for var in range(self._n)
        ]

    def value(self, var: int) -> DeltaRational:
        return DeltaRational(self._beta_r[var], self._beta_d[var])

    def lower_bound(self, var: int) -> Optional[DeltaRational]:
        """Currently asserted lower bound (None if unbounded below)."""
        return self._lower[var]

    def upper_bound(self, var: int) -> Optional[DeltaRational]:
        """Currently asserted upper bound (None if unbounded above)."""
        return self._upper[var]

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
            r, d = self._row_value(basic)
            if r != self._beta_r[basic] or d != self._beta_d[basic]:
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


_F0 = Fraction(0)
