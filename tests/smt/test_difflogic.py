"""Tests for the incremental difference-logic engine.

The hypothesis test cross-checks feasibility against a Bellman-Ford oracle.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import DeltaRational, DifferenceLogic
from repro.smt.rationals import ZERO

from .scaled import assert_constraint


def dr(x, d=0):
    return DeltaRational(x, d)


class TestBasic:
    def test_single_constraint_feasible(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(5), lit=2) is None

    def test_two_cycle_feasible(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(5), lit=2) is None
        assert assert_constraint(dl, b, a, dr(-3), lit=4) is None

    def test_two_cycle_infeasible(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(5), lit=2) is None
        conflict = assert_constraint(dl, b, a, dr(-6), lit=4)
        assert conflict is not None
        assert set(conflict) == {2, 4}

    def test_zero_weight_cycle_feasible_nonstrict(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(0), lit=2) is None
        assert assert_constraint(dl, b, a, dr(0), lit=4) is None

    def test_zero_weight_cycle_infeasible_strict(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        # a - b <= 0 and b - a < 0  =>  infeasible (b < a <= b)
        assert assert_constraint(dl, a, b, dr(0), lit=2) is None
        conflict = assert_constraint(dl, b, a, dr(0, -1), lit=4)
        assert conflict is not None

    def test_three_cycle_conflict_literals(self):
        dl = DifferenceLogic()
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(1), lit=2) is None
        assert assert_constraint(dl, b, c, dr(1), lit=4) is None
        conflict = assert_constraint(dl, c, a, dr(-3), lit=6)
        assert conflict is not None
        assert set(conflict) == {2, 4, 6}

    def test_weaker_constraint_is_noop(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(1), lit=2) is None
        assert assert_constraint(dl, a, b, dr(100), lit=4) is None
        # The tight bound must still hold: adding the closing edge conflicts.
        conflict = assert_constraint(dl, b, a, dr(-2), lit=6)
        assert conflict is not None
        assert 4 not in set(conflict)

    def test_solution_satisfies_constraints(self):
        dl = DifferenceLogic()
        nodes = [dl.new_node() for _ in range(4)]
        constraints = [
            (nodes[0], nodes[1], dr(3)),
            (nodes[1], nodes[2], dr(-1)),
            (nodes[2], nodes[3], dr(2)),
            (nodes[3], nodes[0], dr(0)),
        ]
        for i, (x, y, b) in enumerate(constraints):
            assert assert_constraint(dl, x, y, b, lit=2 * (i + 1)) is None
        sol = dl.solution()
        for x, y, b in constraints:
            assert sol[x] - sol[y] <= b


class TestBacktracking:
    def test_undo_restores_feasibility(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(5), lit=2) is None
        mark = dl.mark()
        conflict = assert_constraint(dl, b, a, dr(-6), lit=4)
        assert conflict is not None
        dl.undo_to(mark)
        # Now a weaker closing edge is fine.
        assert assert_constraint(dl, b, a, dr(-5), lit=4) is None

    def test_undo_tightened_edge(self):
        dl = DifferenceLogic()
        a, b = dl.new_node(), dl.new_node()
        assert assert_constraint(dl, a, b, dr(10), lit=2) is None
        mark = dl.mark()
        assert assert_constraint(dl, a, b, dr(1), lit=4) is None
        dl.undo_to(mark)
        # After undo the bound is 10 again, so -5 on the reverse is fine.
        assert assert_constraint(dl, b, a, dr(-5), lit=6) is None


def bellman_ford_feasible(n, constraints):
    """Oracle: feasibility of difference constraints via Bellman-Ford.

    constraints: list of (x, y, Fraction bound, strict) for x - y <= bound.
    Returns True iff feasible (strict handled with epsilon ordering).
    """
    # Edge y -> x with weight (bound, -1 if strict else 0), lexicographic.
    INF = (Fraction(10**9), 0)
    dist = [(Fraction(0), 0)] * (n + 1)

    def add(w1, w2):
        return (w1[0] + w2[0], w1[1] + w2[1])

    edges = [(y, x, (Fraction(b), -1 if s else 0)) for x, y, b, s in constraints]
    for _ in range(n + 1):
        changed = False
        for u, v, w in edges:
            cand = add(dist[u], w)
            if cand < dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            return True
    return False


@st.composite
def constraint_sets(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=12))
    cons = []
    for _ in range(m):
        x = draw(st.integers(min_value=0, max_value=n - 1))
        y = draw(st.integers(min_value=0, max_value=n - 1))
        if x == y:
            continue
        b = draw(st.integers(min_value=-5, max_value=5))
        s = draw(st.booleans())
        cons.append((x, y, b, s))
    return n, cons


@given(constraint_sets())
@settings(max_examples=200, deadline=None)
def test_matches_bellman_ford_oracle(case):
    n, cons = case
    dl = DifferenceLogic()
    nodes = [dl.new_node() for _ in range(n)]
    feasible = True
    for i, (x, y, b, s) in enumerate(cons):
        bound = DeltaRational(b, -1 if s else 0)
        if assert_constraint(dl, nodes[x], nodes[y], bound, lit=2 * (i + 1)) is not None:
            feasible = False
            break
    assert feasible == bellman_ford_feasible(n, cons)
    if feasible:
        sol = dl.solution()
        for x, y, b, s in cons:
            diff = sol[nodes[x]] - sol[nodes[y]]
            limit = DeltaRational(b, -1 if s else 0)
            assert diff <= limit


# ---------------------------------------------------------------------------
# Weaker/equal re-assertion round-trips (trail-alignment regression)
# ---------------------------------------------------------------------------


def _semantic_state(dl):
    """Engine state normalized out of the integer scale: active edges as
    exact (weight, lit) per node pair, plus the potential."""
    scale = dl._scale
    edges = {}
    for u, targets in enumerate(dl._out):
        for v, e in targets.items():
            edges[(u, v)] = (Fraction(e.wr, scale), Fraction(e.wd, scale),
                             e.lit)
    pi = [(Fraction(r, scale), Fraction(d, scale))
          for r, d in zip(dl._pi_r, dl._pi_d)]
    return edges, pi


@st.composite
def reassert_cases(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=8))
    cons = []
    for _ in range(m):
        x = draw(st.integers(min_value=0, max_value=n - 1))
        y = draw(st.integers(min_value=0, max_value=n - 1))
        if x == y:
            continue
        cons.append((x, y, draw(st.integers(min_value=-4, max_value=4)),
                     draw(st.booleans())))
    # Slack added to an existing edge's bound: 0 = equal re-assertion;
    # denominators 3/5/7 force an engine-wide rescale on the no-op path.
    slacks = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=10),
                  st.sampled_from([1, 2, 3, 5, 7]),
                  st.booleans()),
        min_size=1, max_size=5,
    ))
    return n, cons, slacks


@given(reassert_cases())
@settings(max_examples=150, deadline=None)
def test_weaker_or_equal_reassert_roundtrips_exactly(case):
    """Equal/weaker re-assertion appends a no-op trail entry; undoing it
    (even across an interleaved rescale) must reproduce the engine state
    exactly — same active edges, literals, and potential."""
    n, cons, slacks = case
    dl = DifferenceLogic()
    nodes = [dl.new_node() for _ in range(n)]
    for i, (x, y, b, s) in enumerate(cons):
        bound = DeltaRational(b, -1 if s else 0)
        if assert_constraint(dl, nodes[x], nodes[y], bound,
                                lit=2 * (i + 1)) is not None:
            return  # infeasible prefix: nothing to round-trip
    active = sorted(
        (u, v) for u, targets in enumerate(dl._out) for v in targets
    )
    if not active:
        return
    before = _semantic_state(dl)
    mark = dl.mark()
    for k, (num, den, weaker_delta) in enumerate(slacks):
        u, v = active[k % len(active)]
        e = dl._out[u][v]
        scale = dl._scale
        wr = Fraction(e.wr, scale) + Fraction(num, den)
        wd = Fraction(e.wd, scale) + (1 if weaker_delta else 0)
        # Weaker than (or equal to) the active edge: must be a no-op.
        assert assert_constraint(dl, 
            v, u, DeltaRational(wr, wd), lit=1000 + 2 * k
        ) is None
        assert dl._out[u][v] is e, "weaker re-assert must not replace the edge"
    assert len(dl._trail) == mark + len(slacks)  # one entry per assert
    dl.undo_to(mark)
    assert _semantic_state(dl) == before
    assert dl.check_feasible_assignment()


def test_equal_reassert_across_rescale_roundtrips():
    """Directed case: equal re-assert, then a rescale from an unrelated
    fractional bound, then undo — the parked trail edge must have been
    rescaled exactly once."""
    dl = DifferenceLogic()
    a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
    assert assert_constraint(dl, a, b, DeltaRational(5), lit=2) is None
    before = _semantic_state(dl)
    mark = dl.mark()
    # Equal re-assertion: parked on the trail, graph unchanged.
    assert assert_constraint(dl, a, b, DeltaRational(5), lit=4) is None
    # Unrelated third-denominator bound forces an engine-wide rescale
    # while the no-op entry sits on the trail.
    assert assert_constraint(dl, 
        b, c, DeltaRational(Fraction(1, 3)), lit=6
    ) is None
    dl.undo_to(mark)
    assert _semantic_state(dl) == before
    assert dl.check_feasible_assignment()
