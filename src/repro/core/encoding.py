"""SMT encoding of the joint routing + scheduling problem (paper Sec. V).

The paper's decision variables are, per message ``m_{i,j}`` and switch
``v_k``, the output port ``eta_ijk`` and release time ``gamma_ijk``.  We
realize the same formulation over the paper's own Eq.-(8) route sets: each
message picks one of its candidate simple routes (one-hot Booleans), which
fixes every ``eta`` along the route; the ``gamma`` variables are reals per
(message, switch).  The constraint map:

=====================  =====================================================
Paper constraint        Encoding
=====================  =====================================================
Topology (Eq. 4)        by construction of candidate simple paths
Contention-free (5)     emitted on violation: per directed link, a pair of
                        (message, route) usages gets ``sel1 & sel2 ->
                        |g1 - g2| >= ld`` once a model overlaps it -- see
                        :func:`Encoder.add_contention_constraints`
Transposition (6)       along each candidate route: ``sel -> gamma_next >=
                        gamma_prev + sd + ld`` (sensor release anchored at
                        the sampling instant ``j h_i``)
No-loop (7)             by construction (simple paths)
Route (8)               one-hot selection over the encoded routes, "or a
                        route not encoded yet" (``beyond``), see below
Stability (9)+(10)      ``Lmin/Lmax`` bounded by every message's e2e --
                        per-route rows for open messages, constants for
                        frozen ones -- plus the piecewise segments of
                        Eq. (2); synthesis attains ``Lmin`` only, the
                        negated check both ends -- see
                        :func:`Encoder.add_stability_constraints`
Implicit deadline       ``e2e <= h_i`` (both modes; makes one-hyper-period
                        contention analysis exact)
=====================  =====================================================

Lazy routes
-----------

Every message starts with only its shortest route of
:func:`~repro.network.paths.yen_routes` plus one fresh *beyond* literal,
"m uses a route not encoded yet" (:attr:`MessagePlan.beyond`), whatever
the route limit.  The driver checks under the negation of every beyond
literal (:attr:`MessagePlan.within`); when an ``unsat`` core names one,
:meth:`Encoder.extend_route` encodes that message's next route under a
fresh beyond literal and chains the old one to "the new route or beyond
it".  A route limit K (the paper's route-subset heuristic) only stops
the extension at K routes: the limit is the assumption ``within``,
never a clause, so the formula is the complete mode's whatever K is.
Soundness rests on three rules:

1. **Every constraint that needs *some* route of m carries m's beyond
   literal as a disjunct**: Eq. 8's at-least-one, the ``Lmin``
   attainment disjunction, and the ``Lmax`` one under ``unstable``.
   Everything else is per route and guarded by that route's selector.
   With every beyond literal free the formula is therefore a relaxation
   of the all-routes one (a message on a route not encoded sets its
   beyond literal and selects none of its encoded routes), so an
   ``unsat`` whose core names no beyond literal is a proof about every
   route, and a ``sat`` under all the assumptions uses encoded routes
   only.  An extension re-asserts each attainment disjunction over the
   routes now encoded (``tests/core/test_lazy_routes.py`` pins the list).
2. **Veto escapes include the beyond literal** (:mod:`repro.core.seeding`).
3. **No clause that mentions a beyond literal is exported**: the
   literal's name carries a ``!``, which puts it outside
   :func:`repro.runtime.knowledge.schedule_vocabulary`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..api import Session
from ..errors import EncodingError
from ..network.frames import MessageInstance
from ..network.paths import yen_routes
from ..smt import (
    And,
    Bool,
    BoolExpr,
    BoolVal,
    Implies,
    LinExpr,
    Not,
    Or,
    Real,
)
from .problem import ControlApplication, SynthesisProblem
from .solution import MessageSchedule
from .validator import overlapping_pairs

_NAMESPACE = itertools.count()

#: The encoder namespace of every driver-built encoding: selector and
#: release-time variable names must be identical across portfolio
#: strategies, worker processes and cached runs for shared knowledge to
#: connect (:mod:`repro.core.seeding`), so the service fingerprints
#: carry it.  Reuse across runs is safe — terms intern globally but SAT
#: mappings are per-engine.
SHARED_NAMESPACE = "p"


@dataclass
class MessagePlan:
    """Encoding artifacts for one message being synthesized.

    ``beyond`` is "m uses a route not encoded yet" and ``within`` its
    negation, the assumption every check makes; both are None once no
    route is left to encode or the message is pinned for good.
    """

    message: MessageInstance
    routes: List[List[str]]
    selectors: List[BoolExpr]
    gammas: Dict[str, LinExpr]
    e2e_by_route: List[LinExpr]
    beyond: Optional[BoolExpr] = None
    within: Optional[BoolExpr] = None


@dataclass
class _StabilityRows:
    """One ``add_stability_constraints`` call, kept so that a route
    extension can add its rows and re-assert its attainment."""

    lmin: LinExpr
    lmax: LinExpr
    exact_max: bool
    uids: List[str]
    frozen: Optional[Tuple[Fraction, Fraction]]


class Encoder:
    """Builds the SMT formulation into a :class:`repro.api.Session`.

    One encoder instance serves one synthesis run: every stage of the
    incremental heuristic encodes into the same session.
    """

    def __init__(
        self,
        problem: SynthesisProblem,
        solver: Session,
        route_limit: Optional[int] = None,
        path_cutoff: Optional[int] = None,
        namespace: Optional[str] = None,
    ):
        self.problem = problem
        self.solver = solver
        self.route_limit = route_limit
        self.path_cutoff = path_cutoff
        # ``namespace`` pins the variable-name prefix (the synthesis
        # driver passes SHARED_NAMESPACE); the default stays a fresh
        # counter for ad-hoc encoders.
        self._ns = namespace if namespace is not None else f"q{next(_NAMESPACE)}"
        # app name -> the routes its generator has yielded so far.
        self._route_cache: Dict[str, List[List[str]]] = {}
        self._route_streams: Dict[str, Iterator[List[str]]] = {}
        # app name -> its stability rows.
        self._stability_rows: Dict[str, List[_StabilityRows]] = {}
        self.plans: Dict[str, MessagePlan] = {}
        # Directed-link usage: (u, v) -> list of
        # (uid, route selector, start-time LinExpr or Fraction)
        self.link_usage: Dict[Tuple[str, str], List] = {}
        # (link, i, j) of every usage pair whose Eq. 5 clause is asserted.
        self._contended: Set[Tuple[Tuple[str, str], int, int]] = set()
        # uid -> e2e of every message pinned for good (no guard): the
        # stability rows fold it to a constant.
        self._frozen_e2e: Dict[str, Fraction] = {}

    # ------------------------------------------------------------------
    # Route candidates (Eq. 8 / route-subset heuristic)
    # ------------------------------------------------------------------

    def candidates_for(self, app: ControlApplication) -> List[List[str]]:
        """The routes a new message of ``app`` is encoded with: its
        shortest one."""
        route = self._route(app, 0)
        if route is None:
            raise EncodingError(
                f"app {app.name!r}: no route from {app.sensor!r} to "
                f"{app.controller!r}"
            )
        return [route]

    def _route(self, app: ControlApplication, r: int) -> Optional[List[str]]:
        """Route ``r`` of ``app``, generated on first use (None when the
        app has no such route)."""
        routes = self._route_cache.setdefault(app.name, [])
        while len(routes) <= r:
            stream = self._route_streams.get(app.name)
            if stream is None:
                stream = self._route_streams[app.name] = yen_routes(
                    self.problem.network, app.sensor, app.controller,
                    cutoff=self.path_cutoff)
            route = next(stream, None)
            if route is None:
                return None
            routes.append(route)
        return routes[r]

    def _beyond(self, uid: str, n: int) -> BoolExpr:
        """The literal for "``uid`` uses route ``n`` or a later one"; the
        ``!`` keeps it out of the exported vocabulary."""
        return Bool(f"{self._ns}/R[{uid}]!beyond{n}")

    def _close(self, plan: MessagePlan) -> None:
        """No route is left beyond ``plan``'s encoded ones."""
        self.solver.add(plan.within)
        plan.beyond = plan.within = None

    # ------------------------------------------------------------------
    # Per-message constraints (Eqs. 4, 6, 7, 8 + implicit deadline)
    # ------------------------------------------------------------------

    def encode_message(self, message: MessageInstance) -> MessagePlan:
        """Create variables and routing/scheduling constraints for ``m``."""
        app = self.problem.app_of(message)
        [route] = self.candidates_for(app)
        uid = message.uid

        beyond = self._beyond(uid, 1)
        # Route constraint (Eq. 8): the shortest route or a route not
        # encoded yet.
        self.solver.add(Or(Bool(f"{self._ns}/R[{uid}][0]"), beyond))

        plan = MessagePlan(message, [], [], {}, [])
        self._encode_route(plan, app, route)
        plan.beyond, plan.within = beyond, Not(beyond)
        self.plans[uid] = plan
        return plan

    def _encode_route(self, plan: MessagePlan, app: ControlApplication,
                      route: List[str]) -> None:
        """Eqs. 6, 7 and the deadline along ``route`` under its selector,
        appended to ``plan`` as its next candidate."""
        sd, ld = self.problem.delays.sd, self.problem.delays.ld
        uid = plan.message.uid
        release = plan.message.release
        sel = Bool(f"{self._ns}/R[{uid}][{len(plan.routes)}]")
        switches = route[1:-1]
        if not switches:
            raise EncodingError(
                f"app {app.name!r}: direct sensor-controller links are "
                "not expressible in the switch model"
            )
        gammas = plan.gammas
        for node in switches:
            if node not in gammas:
                gammas[node] = Real(f"{self._ns}/g[{uid}][{node}]")
        # Transposition (Eq. 6) along the chain; the sensor release is
        # the sampling instant (constant).
        prev_time: LinExpr | Fraction = release
        for node in switches:
            g = gammas[node]
            self.solver.add(Implies(sel, g - prev_time >= sd + ld))
            prev_time = g
        e2e = gammas[switches[-1]] + ld - release
        # Implicit deadline: e2e <= h_i.
        self.solver.add(Implies(sel, e2e <= app.period))
        # Record link usages for the contention constraints.
        for u, v in zip(route, route[1:]):
            start = release if u == app.sensor else gammas[u]
            self.link_usage.setdefault((u, v), []).append((uid, sel, start))
        plan.routes.append(route)
        plan.selectors.append(sel)
        plan.e2e_by_route.append(e2e)

    def reach_route(self, uid: str, n: int) -> None:
        """Encode routes of ``uid`` until its beyond literal means "route
        ``n`` or a later one" exactly: at least ``n`` routes encoded (or
        as many as the route limit allows), and the literal asserted
        false when the app has no route past them."""
        plan = self.plans[uid]
        while plan.beyond is not None and len(plan.routes) < n:
            if not self.extend_route(uid):
                break
        app = self.problem.app_of(plan.message)
        if (plan.beyond is not None
                and self._route(app, len(plan.routes)) is None):
            self._close(plan)

    def extend_route(self, uid: str) -> bool:
        """Encode the next route of message ``uid``; returns whether the
        formula changed.

        The new route gets its selector and its per-route constraints, a
        fresh beyond literal takes over, and the old one is chained to
        "the new route or the fresh literal", so every clause that
        carries it (Eq. 8, attainment, veto escapes) still means "a
        route from here on".  Each stability row set the message is in
        gets the new route's rows and its attainment re-asserted.  When
        ``uid`` has no further route its beyond literal is asserted false
        for good instead.  At the route limit nothing is asserted: the
        limit stays the assumption ``within``.
        """
        plan = self.plans[uid]
        n = len(plan.routes)
        if self.route_limit is not None and n >= self.route_limit:
            return False
        app = self.problem.app_of(plan.message)
        route = self._route(app, n)
        if route is None:
            self._close(plan)
            return True
        sel = Bool(f"{self._ns}/R[{uid}][{n}]")
        beyond = self._beyond(uid, n + 1)
        self.solver.add(Or(Not(plan.beyond), sel, beyond))
        for other in plan.selectors:
            self.solver.add(Or(Not(other), Not(sel)))
        self._encode_route(plan, app, route)
        plan.beyond, plan.within = beyond, Not(beyond)
        e2e = plan.e2e_by_route[-1]
        for rows in self._stability_rows.get(app.name, ()):
            if uid in rows.uids:
                self.solver.add(Implies(sel, rows.lmin <= e2e))
                self.solver.add(Implies(sel, rows.lmax >= e2e))
                self._add_attainment(rows)
        return True

    def freeze_message(self, plan: MessagePlan, model, pin: bool = True,
                       guard: Optional[BoolExpr] = None) -> MessageSchedule:
        """Extract ``plan``'s schedule from ``model`` and optionally pin it.

        This is the incremental-synthesis freeze: instead of re-encoding a
        solved message as constants in a fresh solver, the route selectors
        and the selected route's release times are *asserted as equalities*
        in the same solver, so later stages see the earlier schedule while
        all learned clauses stay valid.  ``pin=False`` only extracts (used
        for the final stage, where nothing solves after it).

        With ``guard`` the equalities are asserted under that literal
        (``guard -> eq``) instead of permanently: assuming the guard on
        later checks enforces the freeze, and dropping it re-opens the
        message — the lever of core-driven stage repair.  A permanent
        pin also records the message's e2e, which
        :meth:`add_stability_constraints` then uses as a constant.
        """
        selected = [r for r, sel in enumerate(plan.selectors) if model[sel]]
        if len(selected) != 1:
            raise EncodingError(
                f"{plan.message.uid}: route selection not one-hot in model"
            )
        choice = selected[0]
        route = plan.routes[choice]
        gammas: Dict[str, Fraction] = {}
        for node in route[1:-1]:
            gammas[node] = model[plan.gammas[node]]
        e2e = model[plan.e2e_by_route[choice]]
        if pin:
            pinned = [plan.selectors[choice]]
            pinned.extend(
                Not(sel) for r, sel in enumerate(plan.selectors) if r != choice
            )
            pinned.extend(
                plan.gammas[node] == value for node, value in gammas.items()
            )
            if plan.within is not None:
                pinned.append(plan.within)
            for constraint in pinned:
                if guard is not None:
                    self.solver.add(Implies(guard, constraint))
                else:
                    self.solver.add(constraint)
            if guard is None:
                self._frozen_e2e[plan.message.uid] = e2e
                plan.beyond = plan.within = None
        return MessageSchedule(
            uid=plan.message.uid,
            app=plan.message.flow.name,
            route=route,
            gammas=gammas,
            release=plan.message.release,
            e2e=e2e,
        )

    # ------------------------------------------------------------------
    # Contention-free constraints (Eq. 5)
    # ------------------------------------------------------------------

    def add_contention_constraints(self, model) -> int:
        """Assert Eq. 5 for every pair of link usages ``model`` overlaps.

        Contention is lazy: no pair clause exists up front.  For each
        directed link, the usages whose route selector is true in
        ``model`` go through the validator's detector
        (:func:`~repro.core.validator.overlapping_pairs`), and each pair
        whose starts are less than ``ld`` apart gets the clause the
        paper's Eq. 5 asks for (:meth:`contention_clause`).  Returns the
        number of clauses added; 0 means ``model`` satisfies every Eq. 5
        clause, asserted or not.

        Every added clause is one of the eager formula's, so a formula
        refined this way is a subset of it: an ``unsat`` stays an
        ``unsat`` of the full formula, and whatever the solver learns
        from it is entailed by the full formula too.

        Raises :class:`EncodingError` when ``model`` violates a pair
        asserted before: a model must satisfy the asserted clauses, so
        that is a solver bug, never a reason to add the clause twice.
        """
        ld = self.problem.delays.ld
        added = 0
        for link, usages in self.link_usage.items():
            windows = [
                (model[start] if isinstance(start, LinExpr) else start, i)
                for i, (_, sel, start) in enumerate(usages) if model[sel]
            ]
            for (_, a), (_, b) in overlapping_pairs(windows, ld):
                key = (link, min(a, b), max(a, b))
                if key in self._contended:
                    raise EncodingError(
                        f"link {link[0]}->{link[1]}: the model overlaps "
                        f"{usages[a][0]} and {usages[b][0]}, whose Eq. 5 "
                        "clause is already asserted"
                    )
                self._contended.add(key)
                self.solver.add(self.contention_clause(*key))
                added += 1
        return added

    def contention_clause(self, link: Tuple[str, str], i: int,
                          j: int) -> BoolExpr:
        """Eq. 5 for usages ``i < j`` of ``link`` by different messages:
        ``not sel_i or not sel_j or |t_i - t_j| >= ld``.

        A usage leaving the sensor starts at the constant release time;
        between two constant starts the separation folds to a constant.
        """
        ld = self.problem.delays.ld
        _, sel1, t1 = self.link_usage[link][i]
        _, sel2, t2 = self.link_usage[link][j]
        if isinstance(t1, LinExpr) or isinstance(t2, LinExpr):
            gap = LinExpr.coerce(t1) - t2
            separation = Or(gap >= ld, -gap >= ld)
        else:
            separation = BoolVal(abs(t1 - t2) >= ld)
        return Or(Not(sel1), Not(sel2), separation)

    # ------------------------------------------------------------------
    # Stability constraints (Sec. V-B, Eqs. 9 + 10)
    # ------------------------------------------------------------------

    def add_stability_constraints(
        self,
        app: ControlApplication,
        tag: Optional[str] = None,
        unstable: Optional[BoolExpr] = None,
    ) -> None:
        """Encode ``delta_i >= 0`` for one application.

        ``Lmin`` is tied *exactly* to the min end-to-end delay over the
        app's messages: bounded above by every message (``Lmin <= e2e``)
        and attained via a disjunction (``Lmin >= e2e`` for at least one
        selected route).  ``Lmax`` is bounded below by every message.
        The piecewise condition of Eq. (2) is a disjunction over segments
        of

            l_lo <= Lmin <= l_hi  and  Lmin + alpha (Lmax - Lmin) <= beta

        Only open messages get per-route ``sel -> ...`` rows.  A message
        :meth:`freeze_message` pinned for good has a constant e2e, so the
        frozen ones fold into three assertions in total: ``Lmin <= min``,
        ``Lmax >= max`` and the attainment disjunct ``Lmin >= min``.  A
        guarded (repair-mode) freeze keeps the per-route rows, because
        releasing its guard re-opens the message.  ``tag`` namespaces the
        ``Lmin``/``Lmax`` variables so each incremental stage gets a
        fresh, tighter pair.

        The two polarities differ in ``Lmax``.  Without ``unstable``
        (synthesis) the segments are asserted, and ``Lmax`` needs no
        attainment: every alpha is >= 0, so a model can always lower
        ``Lmax`` to the exact max.  With ``unstable`` the segments are
        negated under that literal (``unstable -> not Or(segments)``):
        assuming it asks for a schedule in which the app violates
        Eq. (2), and leaving it out leaves the app unconstrained.  There
        a larger ``Lmax`` would make violating easier, so ``Lmax`` is
        attained too (``Lmax <= e2e`` for at least one selected route)
        and both ends stay exact.
        """
        spec = app.stability
        if spec is None:
            raise EncodingError(f"app {app.name!r} lacks a stability spec")
        suffix = f"@{tag}" if tag else ""
        lmin = Real(f"{self._ns}/Lmin[{app.name}]{suffix}")
        lmax = Real(f"{self._ns}/Lmax[{app.name}]{suffix}")
        exact_max = unstable is not None

        open_uids: List[str] = []
        frozen: List[Fraction] = []
        for uid, plan in self.plans.items():
            if plan.message.flow.name != app.name:
                continue
            if uid in self._frozen_e2e:
                frozen.append(self._frozen_e2e[uid])
                continue
            open_uids.append(uid)
            for sel, e2e in zip(plan.selectors, plan.e2e_by_route):
                self.solver.add(Implies(sel, lmin <= e2e))
                self.solver.add(Implies(sel, lmax >= e2e))
        if not open_uids and not frozen:
            raise EncodingError(
                f"app {app.name!r}: stability constraints need >= 1 message"
            )
        frozen_range = None
        if frozen:
            frozen_range = lo, hi = min(frozen), max(frozen)
            self.solver.add(lmin <= lo)
            self.solver.add(lmax >= hi)
        rows = _StabilityRows(lmin, lmax, exact_max, open_uids, frozen_range)
        self._add_attainment(rows)
        self._stability_rows.setdefault(app.name, []).append(rows)

        segments = []
        for seg in spec.segments:
            jitter_term = lmax - lmin
            condition = And(
                lmin >= seg.l_lo,
                lmin <= seg.l_hi,
                lmin + seg.alpha * jitter_term <= seg.beta,
            )
            segments.append(condition)
        if unstable is None:
            self.solver.add(Or(segments))
        else:
            self.solver.add(Implies(unstable, Not(Or(segments))))

    def _add_attainment(self, rows: _StabilityRows) -> None:
        """``Lmin >= e2e`` (and under ``unstable`` ``Lmax <= e2e``) for at
        least one selected route of the rows' messages, or a frozen
        constant -- or a route not encoded yet."""
        lmin, lmax, exact_max = rows.lmin, rows.lmax, rows.exact_max
        attain_min: List[BoolExpr] = []
        attain_max: List[BoolExpr] = []
        for uid in rows.uids:
            plan = self.plans[uid]
            for sel, e2e in zip(plan.selectors, plan.e2e_by_route):
                attain_min.append(And(sel, lmin >= e2e))
                if exact_max:
                    attain_max.append(And(sel, lmax <= e2e))
            if plan.beyond is not None:
                attain_min.append(plan.beyond)
                if exact_max:
                    attain_max.append(plan.beyond)
        if rows.frozen is not None:
            lo, hi = rows.frozen
            attain_min.append(lmin >= lo)
            if exact_max:
                attain_max.append(lmax <= hi)
        self.solver.add(Or(attain_min))
        if exact_max:
            self.solver.add(Or(attain_max))
