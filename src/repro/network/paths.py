"""Path algorithms: Dijkstra, Yen's K-shortest paths, all simple paths.

These implement the route-candidate machinery of the paper's "route subset"
heuristic (Sec. V-C-1): the designer provides the first K shortest routes
per control application; ``all_simple_paths`` realizes the basic (complete)
formulation.

Routes are node sequences ``[sensor, switch, ..., switch, controller]``;
intermediate nodes must be switches (endpoints do not forward).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import TopologyError
from .graph import Network


def _forwarding_neighbors(net: Network, node: str, dst: str) -> List[str]:
    """Neighbors reachable as a routing step toward ``dst``.

    Only switches forward traffic, so intermediate hops must be switches;
    the destination endpoint is always allowed.
    """
    out = []
    for nxt in net.neighbors(node):
        if nxt == dst or net.is_switch(nxt):
            out.append(nxt)
    return sorted(out)


def shortest_path(net: Network, src: str, dst: str) -> Optional[List[str]]:
    """Hop-count shortest route from ``src`` to ``dst`` (Dijkstra/BFS).

    Returns None when no route exists.  Ties are broken deterministically
    by lexicographic node order.
    """
    if src not in net or dst not in net:
        raise TopologyError(f"unknown endpoint {src!r} or {dst!r}")
    if src == dst:
        return [src]
    # Uniform weights: Dijkstra degenerates to BFS but we keep the heap for
    # deterministic lexicographic tie-breaking.
    heap: List[Tuple[int, List[str]]] = [(0, [src])]
    best: Dict[str, int] = {src: 0}
    while heap:
        dist, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return path
        if dist > best.get(node, dist):
            continue
        for nxt in _forwarding_neighbors(net, node, dst):
            if nxt == src or nxt in path:
                continue
            nd = dist + 1
            if nd < best.get(nxt, nd + 1):
                best[nxt] = nd
                heapq.heappush(heap, (nd, path + [nxt]))
    return None


def all_simple_paths(
    net: Network, src: str, dst: str, cutoff: Optional[int] = None
) -> Iterator[List[str]]:
    """Yield every simple route from ``src`` to ``dst``.

    ``cutoff`` bounds the path length in *hops* (edges).  Paths are emitted
    in depth-first lexicographic order, so the output is deterministic.
    """
    if src not in net or dst not in net:
        raise TopologyError(f"unknown endpoint {src!r} or {dst!r}")
    limit = cutoff if cutoff is not None else net.num_nodes - 1
    path = [src]
    on_path = {src}

    def dfs(node: str) -> Iterator[List[str]]:
        if len(path) - 1 >= limit:
            return
        for nxt in _forwarding_neighbors(net, node, dst):
            if nxt in on_path:
                continue
            if nxt == dst:
                yield path + [dst]
                continue
            path.append(nxt)
            on_path.add(nxt)
            yield from dfs(nxt)
            path.pop()
            on_path.remove(nxt)

    if src == dst:
        yield [src]
        return
    yield from dfs(src)


def k_shortest_paths(net: Network, src: str, dst: str, k: int) -> List[List[str]]:
    """Yen's algorithm: the first ``k`` loop-free shortest routes.

    Returns fewer than ``k`` paths when the network does not contain that
    many simple routes.  Deterministic: candidates of equal length are
    ordered lexicographically.
    """
    if k <= 0:
        return []
    first = shortest_path(net, src, dst)
    if first is None:
        return []
    paths: List[List[str]] = [first]
    # Candidate heap of (length, path) with lexicographic tie-break.
    candidates: List[Tuple[int, List[str]]] = []
    seen_candidates = {tuple(first)}

    while len(paths) < k:
        prev = paths[-1]
        for i in range(len(prev) - 1):
            spur_node = prev[i]
            root = prev[: i + 1]
            # Build a pruned copy: remove links used by previous paths that
            # share this root, and remove root nodes except the spur node.
            removed_links = set()
            for p in paths:
                if len(p) > i and p[: i + 1] == root:
                    u, v = p[i], p[i + 1]
                    removed_links.add(frozenset((u, v)))
            pruned = _without(net, removed_links, set(root[:-1]))
            spur = shortest_path(pruned, spur_node, dst)
            if spur is None:
                continue
            candidate = root[:-1] + spur
            key = tuple(candidate)
            if key not in seen_candidates:
                seen_candidates.add(key)
                heapq.heappush(candidates, (len(candidate), candidate))
        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        paths.append(best)
    return paths


def _without(net: Network, removed_links: set, removed_nodes: set) -> Network:
    """Copy of ``net`` without the given undirected links and nodes."""
    dup = Network()
    for node in net.nodes:
        if node in removed_nodes:
            continue
        kind = net.kind(node)
        dup._add_node(node, kind)  # type: ignore[attr-defined]
    for link in net.links:
        if link in removed_links:
            continue
        u, v = tuple(link)
        if u in dup._kinds and v in dup._kinds:  # type: ignore[attr-defined]
            dup._adj[u].add(v)  # type: ignore[attr-defined]
            dup._adj[v].add(u)  # type: ignore[attr-defined]
    return dup


def route_candidates(
    net: Network,
    src: str,
    dst: str,
    k: Optional[int],
    cutoff: Optional[int] = None,
) -> List[List[str]]:
    """Candidate route set for a flow (the paper's route subset, Eq. 8).

    ``k=None`` enumerates *all* simple routes (the basic formulation);
    otherwise the first ``k`` shortest routes are returned.  Either way
    the list is ordered by ``(hop count, node names)`` — Yen's own heap
    key — so every ``k`` list is a prefix of the ``k=None`` one: a route's
    index names the same route under every route limit, which
    :mod:`repro.core.seeding` relies on to share knowledge between them.
    """
    if k is None:
        return sorted(all_simple_paths(net, src, dst, cutoff=cutoff),
                      key=lambda path: (len(path), path))
    return k_shortest_paths(net, src, dst, k)
