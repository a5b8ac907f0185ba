"""Network substrate: graph, paths, topologies, TSN switches, flows, delays.

Implements the paper's network model (Sec. II-A), traffic model
(Sec. II-C), and delay model (Sec. II-B).
"""

from .frames import (
    Flow,
    MessageInstance,
    expand_messages,
    hyperperiod,
    messages_by_flow,
)
from .graph import Network, NodeKind
from .paths import (
    k_shortest_paths,
    route_candidates,
    shortest_path,
    yen_routes,
)
from .switch import GclEntry, TsnSwitch, EgressPort, NUM_QUEUES, TT_QUEUE
from .timing import (
    DelayModel,
    as_seconds,
    microseconds,
    milliseconds,
    transmission_delay,
)
from .topology import (
    attach_endpoints,
    erdos_renyi_topology,
    gm_topology,
    grid_topology,
    line_topology,
    random_network,
    ring_topology,
    simple_testbed,
    star_topology,
)

__all__ = [
    "DelayModel",
    "EgressPort",
    "Flow",
    "GclEntry",
    "MessageInstance",
    "Network",
    "NodeKind",
    "NUM_QUEUES",
    "TT_QUEUE",
    "TsnSwitch",
    "as_seconds",
    "attach_endpoints",
    "erdos_renyi_topology",
    "expand_messages",
    "gm_topology",
    "grid_topology",
    "hyperperiod",
    "k_shortest_paths",
    "line_topology",
    "messages_by_flow",
    "microseconds",
    "milliseconds",
    "random_network",
    "ring_topology",
    "route_candidates",
    "shortest_path",
    "simple_testbed",
    "star_topology",
    "transmission_delay",
    "yen_routes",
]
