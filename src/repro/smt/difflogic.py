"""Incremental difference-logic engine (Cotton–Maler style).

Handles conjunctions of constraints ``x - y <= c`` / ``x - y < c`` (and
single-variable bounds via a distinguished zero node).  This is the
workhorse theory for the scheduling atoms of the paper's encoding:
transposition (Eq. 6) and contention-free (Eq. 5) constraints are all
difference atoms, so conflicts among them are detected *eagerly* during the
SAT search with near-linear incremental cost.

The engine maintains a feasible potential function ``pi`` over the
constraint graph (edge ``u -> v`` with weight ``w`` encodes
``val(v) - val(u) <= w``).  Adding an edge triggers a Dijkstra-like
restoration of the potential; failure to restore yields a negative cycle
whose edge literals form the conflict explanation.

Transitive propagation
----------------------

Beyond feasibility, the engine performs Cotton & Maler's SSSP-based
*theory propagation*: callers register node pairs of interest
(:meth:`watch_pair`), and after each batch of successful assertions
:meth:`implied_bounds` derives, for every watched pair ``(s, t)``, the
tightest bound on ``val(t) - val(s)`` provable through a path that uses
one of the freshly asserted edges.  The feasible potential makes every
reduced edge cost non-negative, so both directions of the pass are plain
Dijkstra runs (bounded by an effort cap — see :meth:`implied_bounds`),
and a derived bound ships with the asserted literals of its path as a
ready-made multi-literal explanation.

Number representation
---------------------

This module is the solver's single hottest loop (millions of potential
relaxations per synthesis run), and profiling showed >60% of its time
inside ``Fraction``'s operator dispatch.  All quantities are therefore
stored as *scaled integer pairs*: a delta-rational ``a + b*delta`` becomes
``(a*S, b*S)`` for one engine-wide positive integer scale ``S``.  Sums and
comparisons are then plain (lexicographic) machine-integer operations with
no allocation.  ``S`` grows (by an LCM step that rescales all stored
state) whenever a bound with a finer denominator is converted
(:meth:`~repro.smt.rationals.ScaledEngine.scaled_bound` — the theory
converts each atom's bounds once, when it registers the atom, and asserts
the ready pairs); on the paper's workloads the denominators come from a
small fixed set of timing constants, so rescaling happens a handful of
times per run and the arithmetic is exact — this is a change of units,
not an approximation.  The simplex runs on the same representation with a
scale of its own.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from fractions import Fraction

from .rationals import DeltaRational, Scaled, ScaledEngine

#: Cap on heap pops per SSSP direction (see ``implied_bounds``):
#: bounds the incremental propagation pass so dense graphs or easy
#: instances never pay more than a constant amount of work per asserted
#: edge.  Aborting a pass early is sound — propagation is an optimization
#: and every settled label is already a valid derived bound.  The cap
#: covers difference chains of ~10 hops per side, which profiling on the
#: scheduling workloads showed captures nearly all useful implications at
#: a fraction of an unbounded pass's cost.
DEFAULT_EFFORT_CAP = 48


class _Edge:
    """Tightest active constraint for one ordered node pair (scaled ints)."""

    __slots__ = ("wr", "wd", "lit")

    def __init__(self, wr: int, wd: int, lit: int):
        self.wr = wr
        self.wd = wd
        self.lit = lit


class DifferenceLogic(ScaledEngine):
    """Incremental feasibility of difference constraints with explanations.

    Nodes are dense integer ids allocated by :meth:`new_node`.  Node 0 is
    conventionally the "zero" reference node (created eagerly) so callers
    can express single-variable bounds as differences against it.
    """

    def __init__(self, propagation: bool = True) -> None:
        super().__init__()
        self._pi_r: List[int] = [0]
        self._pi_d: List[int] = [0]
        # adjacency: u -> {v: _Edge} keeping only the tightest active edge.
        self._out: List[Dict[int, _Edge]] = [{}]
        self._in: List[Dict[int, _Edge]] = [{}]
        # Undo trail: ("new", u, v) or ("upd", u, v, old_edge)
        self._trail: List[Tuple] = []
        # Transitive propagation state: watched path pairs (src -> [dst..]),
        # per-pair relevance thresholds (the loosest registered bound, in
        # engine scale: candidates above it can never entail an atom and
        # are pruned before any allocation), and the edges tightened since
        # the last implied_bounds() drain.
        self._propagation = propagation
        self._watch_src: Dict[int, List[int]] = {}
        self._thresh: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # Per-source loosest threshold: lets a pass skip a whole source
        # with one comparison when even its best conceivable path is
        # irrelevant.
        self._src_max: Dict[int, Tuple[int, int]] = {}
        self._fresh: List[Tuple[int, int, _Edge]] = []
        # Set by _restore_potential: whether the last accepted edge moved
        # the potential.  A slack edge (reduced cost >= 0 on arrival)
        # left every shortest-path estimate intact, so the propagation
        # pass for it is skipped — see assert_constraint.
        self._pi_moved = False

    @property
    def zero_node(self) -> int:
        return 0

    def new_node(self) -> int:
        self._pi_r.append(0)
        self._pi_d.append(0)
        self._out.append({})
        self._in.append({})
        return len(self._pi_r) - 1

    @property
    def num_nodes(self) -> int:
        return len(self._pi_r)

    def mark(self) -> int:
        """Current undo-trail position (for backtracking)."""
        return len(self._trail)

    def watch_pair(self, src: int, dst: int, bound: Scaled) -> None:
        """Derive transitive bounds on ``val(dst) - val(src)`` (paths
        ``src -> ... -> dst``) in :meth:`implied_bounds`.

        ``bound`` (a :meth:`scaled_bound` pair in the current scale) is
        the loosest derived bound the caller can still use (e.g. the
        largest registered atom bound on this pair): stricter derivations
        are reported, anything weaker is pruned inside the pass.
        """
        key = (src, dst)
        prev = self._thresh.get(key)
        if prev is None:
            self._watch_src.setdefault(src, []).append(dst)
        elif bound <= prev:
            return
        self._thresh[key] = bound
        cur = self._src_max.get(src)
        if cur is None or bound > cur:
            self._src_max[src] = bound

    def undo_to(self, mark: int) -> None:
        """Remove all edges asserted after ``mark``."""
        if len(self._trail) > mark and self._fresh:
            # Undrained propagation candidates may cite edges being undone;
            # drop them all (propagations lost to backtracking re-arise
            # through search, same policy as the simplex bound watches).
            self._fresh.clear()
        while len(self._trail) > mark:
            entry = self._trail.pop()
            if entry[0] == "new":
                _, u, v = entry
                del self._out[u][v]
                del self._in[v][u]
            else:
                _, u, v, old = entry
                self._out[u][v] = old
                self._in[v][u] = old

    # ------------------------------------------------------------------
    # Scaled-integer bookkeeping
    # ------------------------------------------------------------------

    def _rescale(self, factor: int) -> None:
        """Multiply the engine scale (and every stored value) by ``factor``."""
        self._scale *= factor
        self._pi_r = [r * factor for r in self._pi_r]
        self._pi_d = [d * factor for d in self._pi_d]
        seen = set()
        for targets in self._out:
            for edge in targets.values():
                if id(edge) not in seen:
                    seen.add(id(edge))
                    edge.wr *= factor
                    edge.wd *= factor
        # Superseded edges parked on the trail must stay in sync too: an
        # undo_to() may reinstall them after the rescale.
        for entry in self._trail:
            if entry[0] == "upd":
                edge = entry[3]
                if id(edge) not in seen:
                    seen.add(id(edge))
                    edge.wr *= factor
                    edge.wd *= factor
        # Propagation thresholds are stored in engine scale as well.
        if self._thresh:
            self._thresh = {
                key: (tr * factor, td * factor)
                for key, (tr, td) in self._thresh.items()
            }
            self._src_max = {
                src: (tr * factor, td * factor)
                for src, (tr, td) in self._src_max.items()
            }

    def assert_constraint(
        self, x: int, y: int, bound: Scaled, lit: int
    ) -> Optional[List[int]]:
        """Assert ``val(x) - val(y) <= bound`` (edge ``y -> x``), with
        ``bound`` a :meth:`scaled_bound` pair in the current scale.

        Returns None if still feasible, otherwise the list of literals of a
        negative cycle (including ``lit``), and leaves the engine state
        unchanged apart from the recorded trail entry (callers are expected
        to backtrack via :meth:`undo_to`).

        A transitive-propagation pass is scheduled only when the edge
        *moved the potential*: a slack edge left every shortest-path
        estimate intact, and profiling shows ~90% of asserted
        scheduling atoms are slack — skipping them keeps propagation
        cheaper than the search it saves.
        """
        u, v = y, x
        wr, wd = bound
        existing = self._out[u].get(v)
        if existing is not None and (
            existing.wr < wr or (existing.wr == wr and existing.wd <= wd)
        ):
            # Weaker than (or equal to) an active constraint: the graph is
            # unchanged, but we still record an ("upd", u, v, existing)
            # trail entry whose undo reinstalls the same edge over itself —
            # a harmless no-op that keeps one entry per assert, so callers'
            # marks stay aligned with their own assertion counts.  (The
            # parked edge is the *active* object, which _rescale already
            # scales through the adjacency scan — no double scaling.)
            self._trail.append(("upd", u, v, existing))
            return None
        edge = _Edge(wr, wd, lit)
        if existing is None:
            self._trail.append(("new", u, v))
        else:
            self._trail.append(("upd", u, v, existing))
        self._out[u][v] = edge
        self._in[v][u] = edge
        conflict = self._restore_potential(u, v, edge)
        if (conflict is None and self._pi_moved
                and self._propagation and self._watch_src):
            self._fresh.append((u, v, edge))
        return conflict

    # ------------------------------------------------------------------
    # Potential restoration (Cotton & Maler, 2006)
    # ------------------------------------------------------------------

    def _restore_potential(self, u: int, v: int, edge: _Edge) -> Optional[List[int]]:
        pi_r, pi_d = self._pi_r, self._pi_d
        sr = pi_r[u] + edge.wr - pi_r[v]
        sd = pi_d[u] + edge.wd - pi_d[v]
        if sr > 0 or (sr == 0 and sd >= 0):
            self._pi_moved = False
            return None
        self._pi_moved = True
        gamma: Dict[int, Tuple[int, int]] = {v: (sr, sd)}
        parent: Dict[int, int] = {v: u}
        new_pi: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[int, int, int]] = [(sr, sd, v)]
        out = self._out
        while heap:
            gr, gd, x = heappop(heap)
            if x in new_pi or gamma.get(x) != (gr, gd):
                continue  # stale entry
            if gr > 0 or (gr == 0 and gd >= 0):
                break
            if x == u:
                # Relaxation wrapped around to the source of the new edge:
                # negative cycle through the new edge.
                return self._cycle_explanation(u, v, parent, edge)
            nr = pi_r[x] + gr
            nd = pi_d[x] + gd
            new_pi[x] = (nr, nd)
            for y, e in out[x].items():
                if y in new_pi:
                    continue
                cr = nr + e.wr - pi_r[y]
                cd = nd + e.wd - pi_d[y]
                if cr < 0 or (cr == 0 and cd < 0):
                    old = gamma.get(y)
                    if old is None or cr < old[0] or (cr == old[0] and cd < old[1]):
                        gamma[y] = (cr, cd)
                        parent[y] = x
                        heappush(heap, (cr, cd, y))
        for x, (nr, nd) in new_pi.items():
            pi_r[x] = nr
            pi_d[x] = nd
        return None

    def _cycle_explanation(
        self, u: int, v: int, parent: Dict[int, int], new_edge: _Edge
    ) -> List[int]:
        """Collect the literals along the cycle u -> v -> ... -> u."""
        lits = [new_edge.lit]
        node = u
        # Walk parent pointers from u back to v.
        while node != v:
            prev = parent[node]
            lits.append(self._out[prev][node].lit)
            node = prev
        # Deduplicate while preserving order (a literal may label two edges).
        seen = set()
        out = []
        for l in lits:
            if l not in seen and l >= 0:
                seen.add(l)
                out.append(l)
        return out

    # ------------------------------------------------------------------
    # Transitive propagation (Cotton & Maler, 2006: SSSP on reduced costs)
    # ------------------------------------------------------------------

    def implied_bounds(self) -> List["ImpliedBound"]:
        """Transitive bounds for watched pairs through freshly added edges.

        For every edge tightened since the last drain, runs one bounded
        Dijkstra *backward* from the edge's tail and one *forward* from
        its head, over the reduced costs ``pi(a) + w - pi(b) >= 0`` of
        the feasible potential.  Any watched pair ``(s, t)`` reached on
        both sides yields a path ``s ~> u -> v ~> t`` whose total weight
        ``W`` proves ``val(t) - val(s) <= W``; the tightest such bound
        per pair is returned as an :class:`ImpliedBound` — candidates
        weaker than the pair's registered relevance threshold are pruned
        inside the pass, and the path-literal explanation is materialized
        lazily (:meth:`ImpliedBound.path_lits`), so pairs whose atoms are
        all assigned cost nothing beyond the distance labels.

        Coverage is deliberately best-effort: a pass is scheduled only
        for edges that *moved the potential* (see
        :meth:`assert_constraint`), and each Dijkstra direction stops
        after :data:`DEFAULT_EFFORT_CAP` pops — so an implication whose
        path is completed by a slack edge, or lies beyond the cap, may
        be missed (the atom is simply decided later; propagation is an
        optimization).  Partial passes are sound because any settled
        label is a genuine path weight.  Drains the fresh-edge list.
        """
        if not self._fresh:
            return []
        best: Dict[Tuple[int, int], ImpliedBound] = {}
        for u, v, edge in self._fresh:
            self._sssp_pass(u, v, edge, best)
        self._fresh.clear()
        return list(best.values())

    def _sssp_pass(
        self,
        u: int,
        v: int,
        edge: _Edge,
        best: Dict[Tuple[int, int], "ImpliedBound"],
    ) -> None:
        """Derive watched-pair bounds through the edge ``u -> v``."""
        pi_r, pi_d = self._pi_r, self._pi_d
        rc_r = pi_r[u] + edge.wr - pi_r[v]
        rc_d = pi_d[u] + edge.wd - pi_d[v]
        back, back_par = self._bounded_sssp(u, self._in, backward=True)
        watch_src = self._watch_src
        src_max = self._src_max
        sources = [s for s in back if s in watch_src]
        if not sources:
            return
        fwd, fwd_par = self._bounded_sssp(v, self._out, backward=False)
        # The best conceivable forward completion (min over settled t of
        # reduced dist + pi(t)) lets one comparison rule a source out.
        min_f_r = min_f_d = None
        for t, (fr, fd) in fwd.items():
            cr = fr + pi_r[t]
            cd = fd + pi_d[t]
            if min_f_r is None or cr < min_f_r or (cr == min_f_r and cd < min_f_d):
                min_f_r, min_f_d = cr, cd
        thresh = self._thresh
        out_adj = self._out
        for s in sources:
            br, bd = back[s]
            base_r = br + rc_r - pi_r[s]
            base_d = bd + rc_d - pi_d[s]
            mr, md = src_max[s]
            lo_r = base_r + min_f_r
            if lo_r > mr or (lo_r == mr and base_d + min_f_d > md):
                continue  # even the best completion is irrelevant here
            out_s = out_adj[s]
            dsts = watch_src[s]
            if len(dsts) > len(fwd):
                # Enumerate the smaller side: iterate settled forward
                # nodes and probe the pair-threshold index instead.
                for t, f in fwd.items():
                    th = thresh.get((s, t))
                    if th is None:
                        continue
                    wr = base_r + f[0] + pi_r[t]
                    wd = base_d + f[1] + pi_d[t]
                    if wr > th[0] or (wr == th[0] and wd > th[1]):
                        continue
                    self._consider(best, s, t, wr, wd, out_s,
                                   u, v, edge, back_par, fwd_par)
                continue
            for t in dsts:
                f = fwd.get(t)
                if f is None:
                    continue
                # Un-reduce: reduced length of s ~> t telescopes to
                # true length + pi(s) - pi(t).
                wr = base_r + f[0] + pi_r[t]
                wd = base_d + f[1] + pi_d[t]
                tr, td = thresh[(s, t)]
                if wr > tr or (wr == tr and wd > td):
                    continue  # cannot entail any registered atom
                self._consider(best, s, t, wr, wd, out_s,
                               u, v, edge, back_par, fwd_par)

    def _consider(self, best, s, t, wr, wd, out_s, u, v, edge,
                  back_par, fwd_par) -> None:
        """Record a threshold-passing candidate unless dominated.

        A candidate at least as weak as an *active direct constraint* on
        the same pair is dropped: that constraint's implications already
        flowed through the canonical-slack bound channel when it was
        asserted.
        """
        direct = out_s.get(t)
        if direct is not None and (
            direct.wr < wr or (direct.wr == wr and direct.wd <= wd)
        ):
            return
        cur = best.get((s, t))
        if cur is None or wr < cur.wr or (wr == cur.wr and wd < cur.wd):
            best[(s, t)] = ImpliedBound(
                self, s, t, wr, wd, u, v, edge, back_par, fwd_par
            )

    def _bounded_sssp(
        self, start: int, adj: List[Dict[int, _Edge]], backward: bool
    ) -> Tuple[Dict[int, Tuple[int, int]], Dict[int, Tuple[int, int]]]:
        """Dijkstra over reduced costs from ``start``, capped at
        :data:`DEFAULT_EFFORT_CAP` pops.

        Returns ``(settled, parent)``: exact reduced distances for the
        settled nodes, and for each settled node (except ``start``) the
        ``(neighbour-toward-start, edge literal)`` it was reached from.
        ``backward=True`` walks ``self._in`` (distances are then path
        lengths *toward* ``start`` in the forward edge direction).
        """
        pi_r, pi_d = self._pi_r, self._pi_d
        dist: Dict[int, Tuple[int, int]] = {start: (0, 0)}
        parent: Dict[int, Tuple[int, int]] = {}
        settled: Dict[int, Tuple[int, int]] = {}
        heap: List[Tuple[int, int, int]] = [(0, 0, start)]
        budget = DEFAULT_EFFORT_CAP
        while heap and budget > 0:
            dr, dd, x = heappop(heap)
            if x in settled:
                # Stale entry.  Keys of one node are pushed in strictly
                # decreasing order and never after it settled, so its
                # first pop carried its minimum.
                continue
            settled[x] = (dr, dd)
            budget -= 1
            # The reduced cost of an edge between x and y has x's own
            # potential in it: fold that into the distance once per pop.
            # The delta component is needed only when the real one does
            # not already lose.
            if backward:
                # e is the edge y -> x; cost of prepending it.
                base_r = dr - pi_r[x]
                base_d = dd - pi_d[x]
                for y, e in adj[x].items():
                    if y in settled:
                        continue
                    nr = base_r + e.wr + pi_r[y]
                    cur = dist.get(y)
                    if cur is not None and nr > cur[0]:
                        continue
                    nd = base_d + e.wd + pi_d[y]
                    if cur is None or nr < cur[0] or nd < cur[1]:
                        dist[y] = (nr, nd)
                        parent[y] = (x, e.lit)
                        heappush(heap, (nr, nd, y))
            else:
                # e is the edge x -> y; cost of appending it.
                base_r = dr + pi_r[x]
                base_d = dd + pi_d[x]
                for y, e in adj[x].items():
                    if y in settled:
                        continue
                    nr = base_r + e.wr - pi_r[y]
                    cur = dist.get(y)
                    if cur is not None and nr > cur[0]:
                        continue
                    nd = base_d + e.wd - pi_d[y]
                    if cur is None or nr < cur[0] or nd < cur[1]:
                        dist[y] = (nr, nd)
                        parent[y] = (x, e.lit)
                        heappush(heap, (nr, nd, y))
        return settled, parent

    def _path_lits(
        self,
        s: int,
        t: int,
        u: int,
        v: int,
        edge: _Edge,
        back_par: Dict[int, Tuple[int, int]],
        fwd_par: Dict[int, Tuple[int, int]],
    ) -> Tuple[int, ...]:
        """Asserted literals along the path ``s ~> u -> v ~> t``."""
        seen = set()
        lits: List[int] = []

        def add(lit: int) -> None:
            if lit >= 0 and lit not in seen:
                seen.add(lit)
                lits.append(lit)

        node = s
        while node != u:
            node, lit = back_par[node]
            add(lit)
        add(edge.lit)
        tail: List[int] = []
        node = t
        while node != v:
            node, lit = fwd_par[node]
            tail.append(lit)
        for lit in reversed(tail):
            add(lit)
        return tuple(lits)

    # ------------------------------------------------------------------
    # Query helpers
    # ------------------------------------------------------------------

    def solution(self) -> List[DeltaRational]:
        """A satisfying assignment: ``val(x) = pi(x)``.

        The potential is feasible, i.e. ``pi(u) + w - pi(v) >= 0`` for every
        active edge ``u -> v`` (which encodes ``val(v) - val(u) <= w``), so
        ``val = pi`` satisfies every asserted difference constraint.
        """
        scale = self._scale
        return [
            DeltaRational(Fraction(r, scale), Fraction(d, scale))
            for r, d in zip(self._pi_r, self._pi_d)
        ]

    def check_feasible_assignment(self) -> bool:
        """Debug helper: verify the potential is feasible for all edges."""
        pi_r, pi_d = self._pi_r, self._pi_d
        for u, targets in enumerate(self._out):
            for v, e in targets.items():
                sr = pi_r[u] + e.wr - pi_r[v]
                if sr < 0 or (sr == 0 and pi_d[u] + e.wd - pi_d[v] < 0):
                    return False
        return True


class ImpliedBound:
    """One derived transitive bound: ``val(dst) - val(src) <= bound``.

    Produced by :meth:`DifferenceLogic.implied_bounds`.  The proving
    path's asserted literals are materialized on first
    :meth:`path_lits` call only — consumers typically check the bound
    against their atom thresholds first and never pay for explanations
    of irrelevant pairs.  Valid until the engine is next mutated
    (assert/undo), i.e. within the propagation fixpoint that drained it.
    """

    __slots__ = ("src", "dst", "wr", "wd",
                 "_dl", "_u", "_v", "_edge", "_back_par", "_fwd_par",
                 "_lits", "_bound")

    def __init__(self, dl: DifferenceLogic, src: int, dst: int,
                 wr: int, wd: int, u: int, v: int, edge: _Edge,
                 back_par: Dict[int, Tuple[int, int]],
                 fwd_par: Dict[int, Tuple[int, int]]) -> None:
        self.src = src
        self.dst = dst
        #: The derived bound in engine scale (compare against
        #: :meth:`DifferenceLogic.scaled_bound` values — no Fraction
        #: work on the propagation hot path).
        self.wr = wr
        self.wd = wd
        self._dl = dl
        self._u = u
        self._v = v
        self._edge = edge
        self._back_par = back_par
        self._fwd_par = fwd_par
        self._lits: Optional[Tuple[int, ...]] = None
        self._bound: Optional[DeltaRational] = None

    @property
    def bound(self) -> DeltaRational:
        """The derived bound as a :class:`DeltaRational` (cached)."""
        if self._bound is None:
            scale = self._dl._scale
            self._bound = DeltaRational(
                Fraction(self.wr, scale), Fraction(self.wd, scale)
            )
        return self._bound

    def path_lits(self) -> Tuple[int, ...]:
        """Asserted literals of the proving path (cached)."""
        if self._lits is None:
            self._lits = self._dl._path_lits(
                self.src, self.dst, self._u, self._v, self._edge,
                self._back_par, self._fwd_par,
            )
        return self._lits
