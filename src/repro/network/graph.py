"""Network model: typed nodes and full-duplex links (paper Sec. II-A).

The network is a graph ``G = (V, E)`` whose nodes are Ethernet switches,
sensors, or controllers, and whose edges are full-duplex physical links.
A full-duplex link ``{u, v}`` carries two independent *directed* links
``(u, v)`` and ``(v, u)``; contention analysis (Eq. 5) operates on directed
links because the two directions have separate egress queues.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Set, Tuple

from ..errors import TopologyError


class NodeKind(enum.Enum):
    """The three node types of the paper's system model."""

    SWITCH = "switch"
    SENSOR = "sensor"
    CONTROLLER = "controller"


class Network:
    """An undirected multigraph-free network of switches and endpoints.

    Sensors and controllers are *endpoints*: they originate/terminate
    flows but do not forward traffic, which the routing algorithms rely on
    (a valid route only traverses switches between its endpoints).
    """

    def __init__(self) -> None:
        self._kinds: Dict[str, NodeKind] = {}
        self._adj: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_node(self, name: str, kind: NodeKind) -> str:
        if not isinstance(name, str):
            raise TopologyError(f"node name {name!r:.40} is not a string")
        if name in self._kinds:
            raise TopologyError(f"duplicate node name: {name!r}")
        self._kinds[name] = kind
        self._adj[name] = set()
        return name

    def add_switch(self, name: str) -> str:
        """Add an Ethernet switch node."""
        return self._add_node(name, NodeKind.SWITCH)

    def add_sensor(self, name: str) -> str:
        """Add a sensor endpoint node."""
        return self._add_node(name, NodeKind.SENSOR)

    def add_controller(self, name: str) -> str:
        """Add a controller endpoint node."""
        return self._add_node(name, NodeKind.CONTROLLER)

    def add_link(self, u: str, v: str) -> None:
        """Add a full-duplex link between two existing nodes."""
        for n in (u, v):
            if n not in self._kinds:
                raise TopologyError(f"unknown node: {n!r}")
        if u == v:
            raise TopologyError(f"self-loop on {u!r}")
        if v in self._adj[u]:
            raise TopologyError(f"duplicate link {u!r} - {v!r}")
        if self._kinds[u] != NodeKind.SWITCH and self._kinds[v] != NodeKind.SWITCH:
            raise TopologyError(
                f"link {u!r} - {v!r} connects two endpoints; endpoints may "
                "only attach to switches"
            )
        self._adj[u].add(v)
        self._adj[v].add(u)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    @property
    def nodes(self) -> List[str]:
        return list(self._kinds)

    @property
    def switches(self) -> List[str]:
        return [n for n, k in self._kinds.items() if k == NodeKind.SWITCH]

    @property
    def sensors(self) -> List[str]:
        return [n for n, k in self._kinds.items() if k == NodeKind.SENSOR]

    @property
    def controllers(self) -> List[str]:
        return [n for n, k in self._kinds.items() if k == NodeKind.CONTROLLER]

    def kind(self, name: str) -> NodeKind:
        try:
            return self._kinds[name]
        except KeyError:
            raise TopologyError(f"unknown node: {name!r}") from None

    def is_switch(self, name: str) -> bool:
        return self.kind(name) == NodeKind.SWITCH

    def neighbors(self, name: str) -> Set[str]:
        if name not in self._adj:
            raise TopologyError(f"unknown node: {name!r}")
        return set(self._adj[name])

    def degree(self, name: str) -> int:
        return len(self._adj[name])

    def has_link(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    @property
    def links(self) -> List[FrozenSet[str]]:
        """Undirected full-duplex links."""
        seen = set()
        out = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    @property
    def directed_links(self) -> List[Tuple[str, str]]:
        """All directed links (two per full-duplex physical link)."""
        return [(u, v) for u, nbrs in self._adj.items() for v in nbrs]

    @property
    def num_nodes(self) -> int:
        return len(self._kinds)

    @property
    def num_links(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2

    # ------------------------------------------------------------------
    # Graph algorithms support
    # ------------------------------------------------------------------

    def connected(self, restrict_to_switches: bool = False) -> bool:
        """Whether the network (or its switch subgraph) is connected."""
        nodes = self.switches if restrict_to_switches else self.nodes
        if not nodes:
            return True
        allowed = set(nodes)
        stack = [nodes[0]]
        seen = {nodes[0]}
        while stack:
            cur = stack.pop()
            for nxt in self._adj[cur]:
                if nxt in allowed and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(allowed)

    def components(self) -> List[Set[str]]:
        """Connected components over all nodes, in insertion order of
        their first node (never in set order: that follows the hash seed,
        and random topology repair links ``components()[0]`` to ``[1]``).
        """
        seen: Set[str] = set()
        out = []
        for start in self._kinds:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for nxt in self._adj[cur]:
                    if nxt not in comp:
                        comp.add(nxt)
                        stack.append(nxt)
            seen |= comp
            out.append(comp)
        return out

    def copy(self) -> "Network":
        dup = Network()
        dup._kinds = dict(self._kinds)
        dup._adj = {n: set(s) for n, s in self._adj.items()}
        return dup

    def __repr__(self) -> str:
        return (
            f"Network(switches={len(self.switches)}, sensors={len(self.sensors)}, "
            f"controllers={len(self.controllers)}, links={self.num_links})"
        )
