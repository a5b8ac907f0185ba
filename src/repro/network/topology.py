"""Topology generators: Erdős–Rényi, the GM case-study network, and
regular families used throughout the tests and experiments.

The paper's Fig. 7 experiment generates switch topologies "randomly based
on the Erdős–Rényi graph model" and attaches 10 sensors and 10 controllers
at random; :func:`erdos_renyi_topology` + :func:`attach_endpoints`
reproduce that.  :func:`gm_topology` reconstructs the 8-switch automotive
network of Fig. 1.
"""

from __future__ import annotations

import random

from ..errors import TopologyError
from .graph import Network


def erdos_renyi_topology(
    n_switches: int,
    p: float,
    rng: random.Random,
    ensure_connected: bool = True,
) -> Network:
    """Random switch-only topology following the G(n, p) model.

    When ``ensure_connected`` is set (the default, required for routing),
    disconnected components are repaired by adding one random inter-
    component link at a time — the minimal perturbation of the G(n, p)
    draw that makes synthesis well-posed.
    """
    if n_switches < 1:
        raise TopologyError("need at least one switch")
    net = Network()
    switches = [net.add_switch(f"SW{i}") for i in range(n_switches)]
    for i in range(n_switches):
        for j in range(i + 1, n_switches):
            if rng.random() < p:
                net.add_link(switches[i], switches[j])
    if ensure_connected:
        comps = net.components()
        while len(comps) > 1:
            a = rng.choice(sorted(comps[0]))
            b = rng.choice(sorted(comps[1]))
            net.add_link(a, b)
            comps = net.components()
    return net


def attach_endpoints(
    net: Network,
    n_sensors: int,
    n_controllers: int,
    rng: random.Random,
) -> Network:
    """Attach sensors and controllers to random switches (paper Sec. VI)."""
    switches = sorted(net.switches)
    if not switches:
        raise TopologyError("cannot attach endpoints: no switches")
    for i in range(n_sensors):
        s = net.add_sensor(f"S{i}")
        net.add_link(s, rng.choice(switches))
    for i in range(n_controllers):
        c = net.add_controller(f"C{i}")
        net.add_link(c, rng.choice(switches))
    return net


def random_network(
    n_switches: int,
    n_sensors: int,
    n_controllers: int,
    p: float = 0.3,
    seed: int = 0,
) -> Network:
    """One-call generator matching the paper's experimental networks."""
    rng = random.Random(seed)
    net = erdos_renyi_topology(n_switches, p, rng)
    return attach_endpoints(net, n_sensors, n_controllers, rng)


def gm_topology(n_sensors: int = 3, n_controllers: int = 3) -> Network:
    """The 8-switch automotive topology of the paper's Fig. 1.

    Reconstruction: the figure shows 8 Ethernet switches in a 2 x 4 mesh
    (two longitudinal chains bridged by four cross-links, a standard
    zonal automotive layout) with sensors attached on one side and
    controllers (ECUs) on the other.  Endpoints are attached round-robin:
    sensor ``i`` to switch ``SW{i mod 4}`` (top row), controller ``i`` to
    switch ``SW{4 + (i mod 4)}`` (bottom row).

    The Table I case study uses ``n_sensors = n_controllers = 20``.
    """
    net = Network()
    switches = [net.add_switch(f"SW{i}") for i in range(8)]
    # Top chain SW0-SW1-SW2-SW3, bottom chain SW4-SW5-SW6-SW7.
    for i in range(3):
        net.add_link(switches[i], switches[i + 1])
        net.add_link(switches[4 + i], switches[4 + i + 1])
    # Cross links.
    for i in range(4):
        net.add_link(switches[i], switches[4 + i])
    for i in range(n_sensors):
        s = net.add_sensor(f"S{i}")
        net.add_link(s, switches[i % 4])
    for i in range(n_controllers):
        c = net.add_controller(f"C{i}")
        net.add_link(c, switches[4 + (i % 4)])
    return net


def line_topology(n_switches: int) -> Network:
    """Switches in a chain: SW0 - SW1 - ... (plus no endpoints)."""
    net = Network()
    switches = [net.add_switch(f"SW{i}") for i in range(n_switches)]
    for i in range(n_switches - 1):
        net.add_link(switches[i], switches[i + 1])
    return net


def ring_topology(n_switches: int) -> Network:
    """Switches in a cycle (two disjoint routes between any pair)."""
    if n_switches < 3:
        raise TopologyError("a ring needs at least 3 switches")
    net = line_topology(n_switches)
    net.add_link(f"SW{n_switches - 1}", "SW0")
    return net


def star_topology(n_leaves: int) -> Network:
    """One hub switch with ``n_leaves`` leaf switches."""
    net = Network()
    hub = net.add_switch("HUB")
    for i in range(n_leaves):
        leaf = net.add_switch(f"SW{i}")
        net.add_link(hub, leaf)
    return net


def grid_topology(rows: int, cols: int) -> Network:
    """Rows x cols switch mesh (4-neighbour grid)."""
    net = Network()
    for r in range(rows):
        for c in range(cols):
            net.add_switch(f"SW{r}_{c}")
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.add_link(f"SW{r}_{c}", f"SW{r}_{c + 1}")
            if r + 1 < rows:
                net.add_link(f"SW{r}_{c}", f"SW{r + 1}_{c}")
    return net


def simple_testbed(n_apps: int = 2) -> Network:
    """A small 4-switch ring with ``n_apps`` sensor/controller pairs.

    Used by the quickstart example and many integration tests: every
    sensor-controller pair has at least two disjoint routes.
    """
    net = ring_topology(4)
    for i in range(n_apps):
        s = net.add_sensor(f"S{i}")
        c = net.add_controller(f"C{i}")
        net.add_link(s, f"SW{i % 4}")
        net.add_link(c, f"SW{(i + 2) % 4}")
    return net
