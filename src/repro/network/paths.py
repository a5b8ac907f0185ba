"""Path algorithms: Dijkstra and Yen's loop-free shortest routes.

These implement the route candidates of the paper's Eq. (8).  Every
candidate list comes from one resumable generator, :func:`yen_routes`,
which yields a flow's simple routes in ``(hop count, node names)``
order: the route-subset heuristic (Sec. V-C-1) takes its first K, and
the basic (complete) formulation pulls one more route whenever the
solver asks for it (:mod:`repro.core.encoding`), so no caller ever
enumerates every simple route up front.

Routes are node sequences ``[sensor, switch, ..., switch, controller]``;
intermediate nodes must be switches (endpoints do not forward).
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import (AbstractSet, Callable, Dict, Iterator, List, Optional,
                    Tuple)

from ..errors import TopologyError
from .graph import Network

_NONE: AbstractSet = frozenset()


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


def _check_endpoints(net: Network, src: str, dst: str) -> None:
    if src not in net or dst not in net:
        raise TopologyError(f"unknown endpoint {src!r} or {dst!r}")


def _bfs(forward: Callable[[str], List[str]], src: str, dst: str,
         blocked_nodes: AbstractSet[str] = _NONE,
         blocked_links: AbstractSet[Tuple[str, str]] = _NONE,
         ) -> Optional[List[str]]:
    """Hop-count shortest route avoiding the blocked nodes and (directed)
    links, ties broken by lexicographic node order; None if none."""
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
        for nxt in forward(node):
            if (nxt == src or nxt in path or nxt in blocked_nodes
                    or (node, nxt) in blocked_links):
                continue
            nd = dist + 1
            if nd < best.get(nxt, nd + 1):
                best[nxt] = nd
                heapq.heappush(heap, (nd, path + [nxt]))
    return None


def shortest_path(net: Network, src: str, dst: str) -> Optional[List[str]]:
    """Hop-count shortest route from ``src`` to ``dst`` (Dijkstra/BFS).

    Returns None when no route exists.  Ties are broken deterministically
    by lexicographic node order.
    """
    _check_endpoints(net, src, dst)
    return _bfs(lambda node: _forwarding_neighbors(net, node, dst), src, dst)


def yen_routes(net: Network, src: str, dst: str,
               cutoff: Optional[int] = None) -> Iterator[List[str]]:
    """Yen's algorithm as a resumable generator of loop-free routes.

    Yields every simple route from ``src`` to ``dst`` in ``(hop count,
    node names)`` order, each one only when the caller asks for it: the
    spur searches that find route n+1 run when route n+1 is requested.
    ``cutoff`` is a hop bound — the generator ends at the first route
    longer than ``cutoff`` hops — and the generator ends by itself once
    the network holds no further simple route.

    Spur searches run on ``net`` itself, with the root's nodes and the
    used spur links blocked, so no network is copied.
    """
    _check_endpoints(net, src, dst)
    neighbors: Dict[str, List[str]] = {}

    def forward(node: str) -> List[str]:
        out = neighbors.get(node)
        if out is None:
            out = neighbors[node] = _forwarding_neighbors(net, node, dst)
        return out

    first = _bfs(forward, src, dst)
    if first is None:
        return
    paths: List[List[str]] = []
    # Candidate heap of (length, path) with lexicographic tie-break.
    candidates: List[Tuple[int, List[str]]] = [(len(first), first)]
    seen = {tuple(first)}
    while candidates:
        _, path = heapq.heappop(candidates)
        if cutoff is not None and len(path) - 1 > cutoff:
            return
        paths.append(path)
        yield path
        for i in range(len(path) - 1):
            root = path[: i + 1]
            # Block the links that earlier routes sharing this root take
            # out of the spur node, and the root's nodes but the spur.
            blocked_links = {
                (p[i], p[i + 1]) for p in paths if p[: i + 1] == root
            }
            spur = _bfs(forward, path[i], dst, set(root[:-1]),
                        blocked_links)
            if spur is None:
                continue
            candidate = root[:-1] + spur
            key = tuple(candidate)
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (len(candidate), candidate))


def k_shortest_paths(net: Network, src: str, dst: str, k: int) -> List[List[str]]:
    """The first ``k`` loop-free shortest routes (:func:`yen_routes`).

    Returns fewer than ``k`` paths when the network does not contain that
    many simple routes.
    """
    if k <= 0:
        return []
    return list(islice(yen_routes(net, src, dst), k))


def route_candidates(
    net: Network,
    src: str,
    dst: str,
    k: Optional[int],
    cutoff: Optional[int] = None,
) -> List[List[str]]:
    """Candidate route set for a flow (the paper's route subset, Eq. 8).

    The first ``k`` routes of :func:`yen_routes` (``k=None``: all of
    them, within ``cutoff`` hops).  The list is ordered by ``(hop count,
    node names)``, so every ``k`` list is a prefix of every longer one:
    a route's index names the same route under every route limit, which
    :mod:`repro.core.seeding` relies on to share knowledge between them.
    """
    return list(islice(yen_routes(net, src, dst, cutoff), k))
