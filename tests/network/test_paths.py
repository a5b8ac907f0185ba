"""Path algorithms, property-tested against networkx as an oracle.

The route generator (:func:`yen_routes`) is also checked against a
short enumerator written here, so its order does not rest on networkx
alone.
"""

import random
from itertools import islice

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import (
    Network,
    k_shortest_paths,
    ring_topology,
    route_candidates,
    shortest_path,
    simple_testbed,
    yen_routes,
)


def attach(net, sensor, controller, s_sw, c_sw):
    net.add_sensor(sensor)
    net.add_controller(controller)
    net.add_link(sensor, s_sw)
    net.add_link(controller, c_sw)


@pytest.fixture
def ring_with_endpoints():
    net = ring_topology(4)
    attach(net, "S0", "C0", "SW0", "SW2")
    return net


class TestShortestPath:
    def test_on_ring(self, ring_with_endpoints):
        path = shortest_path(ring_with_endpoints, "S0", "C0")
        assert path is not None
        assert path[0] == "S0" and path[-1] == "C0"
        assert len(path) == 5  # S0, SW0, SW1|SW3, SW2, C0

    def test_no_route(self):
        net = Network()
        net.add_switch("A")
        net.add_switch("B")
        attach(net, "S0", "C0", "A", "B")
        assert shortest_path(net, "S0", "C0") is None

    def test_does_not_route_through_endpoints(self):
        # S0 - SW0 - C0 and S0 - SW0 - S1 - SW1 - C0 style shortcut must
        # not exist: endpoints do not forward.
        net = Network()
        net.add_switch("SW0")
        net.add_switch("SW1")
        attach(net, "S0", "C0", "SW0", "SW1")
        net.add_sensor("S1")
        net.add_link("S1", "SW0")
        net.add_link("S1", "SW1")  # S1 bridges the two switches
        assert shortest_path(net, "S0", "C0") is None

    def test_deterministic_tie_break(self, ring_with_endpoints):
        p1 = shortest_path(ring_with_endpoints, "S0", "C0")
        p2 = shortest_path(ring_with_endpoints, "S0", "C0")
        assert p1 == p2


class TestYenRoutes:
    def test_ring_has_two_routes(self, ring_with_endpoints):
        paths = list(yen_routes(ring_with_endpoints, "S0", "C0"))
        assert len(paths) == 2
        for p in paths:
            assert p[0] == "S0" and p[-1] == "C0"

    def test_cutoff_limits_length(self, ring_with_endpoints):
        paths = list(yen_routes(ring_with_endpoints, "S0", "C0", cutoff=3))
        assert paths == []
        paths = list(yen_routes(ring_with_endpoints, "S0", "C0", cutoff=4))
        assert len(paths) == 2

    def test_paths_are_simple(self, ring_with_endpoints):
        for p in yen_routes(ring_with_endpoints, "S0", "C0"):
            assert len(set(p)) == len(p)

    def test_exhaustion_ends_the_generator(self, ring_with_endpoints):
        routes = yen_routes(ring_with_endpoints, "S0", "C0")
        assert len(list(islice(routes, 5))) == 2
        assert next(routes, None) is None

    def test_no_route_yields_nothing(self):
        net = Network()
        net.add_switch("A")
        net.add_switch("B")
        attach(net, "S0", "C0", "A", "B")
        assert list(yen_routes(net, "S0", "C0")) == []


class TestKShortest:
    def test_k1_is_shortest(self, ring_with_endpoints):
        paths = k_shortest_paths(ring_with_endpoints, "S0", "C0", 1)
        assert paths == [shortest_path(ring_with_endpoints, "S0", "C0")]

    def test_k_exhausts_routes(self, ring_with_endpoints):
        paths = k_shortest_paths(ring_with_endpoints, "S0", "C0", 10)
        assert len(paths) == 2
        assert len({tuple(p) for p in paths}) == 2

    def test_lengths_nondecreasing(self):
        net = simple_testbed(1)
        paths = k_shortest_paths(net, "S0", "C0", 5)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_k_zero(self, ring_with_endpoints):
        assert k_shortest_paths(ring_with_endpoints, "S0", "C0", 0) == []

    def test_route_candidates_none_enumerates_all(self, ring_with_endpoints):
        all_routes = route_candidates(ring_with_endpoints, "S0", "C0", None)
        assert len(all_routes) == 2


# ---------------------------------------------------------------------------
# networkx oracle
# ---------------------------------------------------------------------------


@st.composite
def switch_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                edges.append((i, j))
    return n, edges


def build_pair(n, edges):
    """Build (our Network, networkx Graph) with endpoints on nodes 0/n-1."""
    net = Network()
    g = nx.Graph()
    for i in range(n):
        net.add_switch(f"SW{i}")
        g.add_node(f"SW{i}")
    for i, j in edges:
        net.add_link(f"SW{i}", f"SW{j}")
        g.add_edge(f"SW{i}", f"SW{j}")
    attach(net, "S0", "C0", "SW0", f"SW{n - 1}")
    g.add_edge("S0", "SW0")
    g.add_edge("C0", f"SW{n - 1}")
    return net, g


@given(switch_graphs())
@settings(max_examples=100, deadline=None)
def test_shortest_path_length_matches_networkx(case):
    n, edges = case
    net, g = build_pair(n, edges)
    ours = shortest_path(net, "S0", "C0")
    try:
        ref_len = nx.shortest_path_length(g, "S0", "C0")
    except nx.NetworkXNoPath:
        ref_len = None
    if ref_len is None:
        assert ours is None
    else:
        assert ours is not None
        assert len(ours) - 1 == ref_len


def simple_routes(net, src, dst):
    """Every simple route by depth-first search: only switches forward."""
    routes = []

    def walk(path):
        for nxt in sorted(net.neighbors(path[-1])):
            if nxt in path:
                continue
            if nxt == dst:
                routes.append(path + [nxt])
            elif net.is_switch(nxt):
                walk(path + [nxt])

    walk([src])
    return routes


def by_hops_then_names(routes):
    return sorted((list(p) for p in routes), key=lambda p: (len(p), p))


def attach_extra(net, n, s_extra, c_extra):
    """Extra endpoint attachments give a flow several ways into and out
    of the fabric."""
    for endpoint, extra, home in (("S0", s_extra, 0), ("C0", c_extra, n - 1)):
        for sw in sorted(extra - {home}):
            if sw < n:
                net.add_link(endpoint, f"SW{sw}")
                yield endpoint, f"SW{sw}"


extra_endpoints = st.sets(st.integers(min_value=0, max_value=6), max_size=2)


@given(switch_graphs(), extra_endpoints, extra_endpoints)
@settings(max_examples=100, deadline=None)
def test_yen_routes_match_sorted_networkx(case, s_extra, c_extra):
    # For every n the generator's first n routes are the first n of all
    # simple routes in (hop count, node names) order -- from networkx and
    # from the enumerator above -- and then it stops.
    n, edges = case
    net, g = build_pair(n, edges)
    g.add_edges_from(attach_extra(net, n, s_extra, c_extra))
    # In these graphs the only endpoints are S0/C0 (never interior), so the
    # networkx enumeration over the full graph matches ours.
    reference = by_hops_then_names(nx.all_simple_paths(g, "S0", "C0"))
    assert by_hops_then_names(simple_routes(net, "S0", "C0")) == reference
    routes = yen_routes(net, "S0", "C0")
    for i, want in enumerate(reference):
        assert next(routes) == want, f"route {i}"
    assert next(routes, None) is None


@given(switch_graphs(), st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_cutoff_stops_at_the_hop_bound(case, cutoff):
    n, edges = case
    net, _ = build_pair(n, edges)
    every = by_hops_then_names(simple_routes(net, "S0", "C0"))
    within = [p for p in every if len(p) - 1 <= cutoff]
    assert list(yen_routes(net, "S0", "C0", cutoff=cutoff)) == within
    assert route_candidates(net, "S0", "C0", None, cutoff=cutoff) == within


@given(switch_graphs(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_k_shortest_agrees_with_exhaustive(case, k):
    n, edges = case
    net, g = build_pair(n, edges)
    ours = k_shortest_paths(net, "S0", "C0", k)
    everything = sorted(
        (tuple(p) for p in nx.all_simple_paths(g, "S0", "C0")),
        key=lambda p: len(p)
    )
    assert len(ours) == min(k, len(everything))
    # Yen's result lengths must match the k smallest lengths.
    assert [len(p) for p in ours] == [len(p) for p in everything[: len(ours)]]
    # And each returned path must be a genuine simple path.
    assert len({tuple(p) for p in ours}) == len(ours)
    for p in ours:
        assert tuple(p) in {tuple(q) for q in everything}


@given(switch_graphs(), st.integers(min_value=1, max_value=8),
       extra_endpoints, extra_endpoints)
@settings(max_examples=200, deadline=None)
def test_k_routes_are_a_prefix_of_all_routes(case, k, s_extra, c_extra):
    # Route index r must name the same route under every route limit
    # (repro.core.seeding shares knowledge by index).
    n, edges = case
    net, _ = build_pair(n, edges)
    list(attach_extra(net, n, s_extra, c_extra))
    every = by_hops_then_names(simple_routes(net, "S0", "C0"))
    assert route_candidates(net, "S0", "C0", None) == every
    assert route_candidates(net, "S0", "C0", k) == every[:k]
