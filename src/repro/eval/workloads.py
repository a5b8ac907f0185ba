"""Workload generation for the paper's experiments (Sec. VI).

* Random problems: a 35-node network (15 Erdős–Rényi switches, 10 sensors,
  10 controllers) with 10 control applications drawn from the plant
  database, periods from the paper's {20, 40, 50} ms set (hyper-period
  200 ms, so problems carry 40..100 messages — the x-axis of Figs. 4/6).
* The General Motors case study (Table I): the 8-switch Fig. 1 topology
  with 20 applications and exactly 106 messages per 200 ms hyper-period,
  using the published (period, alpha, beta) rows verbatim.

Stability specs for generated apps come from the *real* analysis pipeline
(LQG design -> jitter-margin curve -> piecewise bound), cached per
(plant, period) pair since the curve computation is the expensive step.
That pipeline needs numpy, so it is imported inside
:func:`stability_spec_for`; the GM and bottleneck generators use
published or hand-set (alpha, beta) rows and never load it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.problem import ControlApplication, SynthesisProblem
from ..network.graph import Network
from ..network.timing import DelayModel, microseconds
from ..network.topology import attach_endpoints, erdos_renyi_topology, gm_topology
from ..stability.piecewise import StabilitySpec, fit_lower_bound

#: The paper's period set for the evaluation (ms -> Fraction seconds).
PAPER_PERIODS = (Fraction(20, 1000), Fraction(40, 1000), Fraction(50, 1000))

#: Plant assigned to each period in random workloads: the period must be a
#: sensible sampling rate for the plant's dynamics.
PERIOD_PLANTS: Dict[Fraction, str] = {
    Fraction(20, 1000): "inverted_pendulum",
    Fraction(40, 1000): "ball_and_beam",
    Fraction(50, 1000): "harmonic_oscillator",
}

#: Fast 100 Mbit/s links for the random experiments: ld = 120 us, so tens
#: of messages fit each 200 ms hyper-period with room for contention.
FAST_DELAYS = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))

_SPEC_CACHE: Dict[Tuple[str, Fraction], StabilitySpec] = {}


def stability_spec_for(
    plant_name: str,
    period: Fraction,
    n_segments: int = 3,
    coarse: bool = True,
) -> StabilitySpec:
    """The (alpha, beta, L) bound for a plant sampled at ``period``.

    Runs the full analysis pipeline (LQG design, jitter-margin curve,
    verified piecewise fit) once per (plant, period) and caches the
    result.  ``coarse`` uses a lighter frequency grid — the specs feed
    synthesis *constraints*, where conservative values are fine.
    """
    key = (plant_name, period)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        from ..control.plants import PLANT_FACTORIES, paper_controller
        from ..stability.curve import compute_stability_curve
        from ..stability.margin import JitterMarginOptions

        plant = PLANT_FACTORIES[plant_name]()
        h = float(period)
        ctrl = paper_controller(plant, h)
        options = (
            JitterMarginOptions(n_grid=800, refine_rounds=2) if coarse else None
        )
        curve = compute_stability_curve(
            plant.system, h, ctrl, n_points=9, options=options
        )
        spec = fit_lower_bound(curve, n_segments)
        _SPEC_CACHE[key] = spec
    return spec


def experiment_network(seed: int, n_switches: int = 15,
                       n_sensors: int = 10, n_controllers: int = 10,
                       p: float = 0.3) -> Network:
    """The 35-node network of the paper's first two experiments."""
    rng = random.Random(seed)
    net = erdos_renyi_topology(n_switches, p, rng)
    return attach_endpoints(net, n_sensors, n_controllers, rng)


def random_apps(
    rng: random.Random,
    n_apps: int,
    sensors: Sequence[str],
    controllers: Sequence[str],
    periods: Sequence[Fraction] = PAPER_PERIODS,
) -> List[ControlApplication]:
    """Draw ``n_apps`` applications with plant-matched periods and specs."""
    apps = []
    for i in range(n_apps):
        period = rng.choice(list(periods))
        plant_name = PERIOD_PLANTS.get(period, "ball_and_beam")
        spec = stability_spec_for(plant_name, period)
        apps.append(
            ControlApplication(
                name=f"app{i}",
                sensor=sensors[i % len(sensors)],
                controller=controllers[i % len(controllers)],
                period=period,
                stability=spec,
            )
        )
    return apps


def random_problem(
    seed: int,
    n_apps: int = 10,
    n_switches: int = 15,
    delays: DelayModel = FAST_DELAYS,
    periods: Sequence[Fraction] = PAPER_PERIODS,
) -> SynthesisProblem:
    """One of the paper's random 35-node synthesis problems."""
    rng = random.Random(seed)
    net = experiment_network(seed, n_switches=n_switches,
                             n_sensors=max(n_apps, 1),
                             n_controllers=max(n_apps, 1))
    apps = random_apps(rng, n_apps, sorted(net.sensors), sorted(net.controllers),
                       periods)
    return SynthesisProblem(net, apps, delays)


def fixed_message_count_periods(n_apps: int, n_messages: int) -> List[Fraction]:
    """Period multiset over {20, 40, 50} ms yielding ``n_messages`` per
    200 ms hyper-period: solves 10a + 5b + 4c = n_messages, a+b+c = n_apps.
    """
    for a in range(n_apps + 1):
        for b in range(n_apps - a + 1):
            c = n_apps - a - b
            if 10 * a + 5 * b + 4 * c == n_messages:
                return (
                    [Fraction(20, 1000)] * a
                    + [Fraction(40, 1000)] * b
                    + [Fraction(50, 1000)] * c
                )
    raise ValueError(
        f"no {{20,40,50}} ms period mix gives {n_messages} messages "
        f"for {n_apps} apps"
    )


def problem_with_message_count(
    seed: int,
    n_messages: int,
    n_apps: int = 10,
    n_switches: int = 15,
    delays: DelayModel = FAST_DELAYS,
) -> SynthesisProblem:
    """A random problem with an exact message count (Fig. 7 uses 45)."""
    rng = random.Random(seed)
    periods = fixed_message_count_periods(n_apps, n_messages)
    rng.shuffle(periods)
    net = experiment_network(seed, n_switches=n_switches,
                             n_sensors=n_apps, n_controllers=n_apps)
    sensors, controllers = sorted(net.sensors), sorted(net.controllers)
    apps = []
    for i, period in enumerate(periods):
        plant_name = PERIOD_PLANTS[period]
        apps.append(
            ControlApplication(
                name=f"app{i}",
                sensor=sensors[i % len(sensors)],
                controller=controllers[i % len(controllers)],
                period=period,
                stability=stability_spec_for(plant_name, period),
            )
        )
    return SynthesisProblem(net, apps, delays)


# ---------------------------------------------------------------------------
# Bottleneck workloads (assumption probing / unsat cores)
# ---------------------------------------------------------------------------

#: Link/switch delays of the bottleneck instances: ld dominates, so link
#: capacity (not switch latency) is the binding resource.
BOTTLENECK_DELAYS = DelayModel(sd=microseconds(5), ld=Fraction(1, 1000))


def bottleneck_network(n_apps: int, islands: int = 0) -> Network:
    """``n_apps`` sensor/controller pairs funnelled through one link.

    All apps share switch ``A`` -> ``B``: the direct link A-B is the
    shortest route for everyone, with a single relief path through
    ``D``.  ``islands`` adds that many *independent* copies (prefix
    ``I<k>.``) whose apps never contend with the main funnel — their
    shortest routes are always feasible, which makes them the
    non-conflicting remainder a core-guided probe keeps.
    """
    net = Network()
    for sw in ("A", "D", "B"):
        net.add_switch(sw)
    net.add_link("A", "B")
    net.add_link("A", "D")
    net.add_link("D", "B")
    for i in range(n_apps):
        net.add_sensor(f"S{i}")
        net.add_controller(f"C{i}")
        net.add_link(f"S{i}", "A")
        net.add_link("B", f"C{i}")
    for k in range(islands):
        pre = f"I{k}."
        for sw in ("A", "D", "B"):
            net.add_switch(pre + sw)
        net.add_link(pre + "A", pre + "B")
        net.add_link(pre + "A", pre + "D")
        net.add_link(pre + "D", pre + "B")
        net.add_sensor(pre + "S")
        net.add_controller(pre + "C")
        net.add_link(pre + "S", pre + "A")
        net.add_link(pre + "B", pre + "C")
    return net


def bottleneck_problem(
    n_apps: int = 3,
    period: Fraction = Fraction(45, 10000),
    islands: int = 0,
    island_period: Optional[Fraction] = None,
) -> SynthesisProblem:
    """A contention-tight funnel where shortest-route probing must fail.

    With the default 4.5 ms period and 1 ms link delay the direct link
    holds only two of the three messages (window < 2 separations), while
    the relief path holds exactly one — so the instance is *satisfiable*
    but every all-shortest-routes selection is not: the greedy
    assumption probe fails and its minimized unsat core names the
    funnel's selectors.  Shrinking the period below the relief path's
    latency (e.g. 3.5 ms) makes the instance infeasible outright.
    """
    net = bottleneck_network(n_apps, islands=islands)
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", period,
            StabilitySpec.single_line("1.5", str(float(period))),
        )
        for i in range(n_apps)
    ]
    for k in range(islands):
        pre = f"I{k}."
        p = island_period or period
        apps.append(
            ControlApplication(
                f"island{k}", pre + "S", pre + "C", p,
                StabilitySpec.single_line("1.5", str(float(p))),
            )
        )
    return SynthesisProblem(net, apps, BOTTLENECK_DELAYS)


def bottleneck_repair_problem() -> SynthesisProblem:
    """A staged-heuristic trap that core-driven repair recovers.

    Six 9 ms apps and one 4.5 ms app share the funnel.  With ``stages=2``
    the first stage freezes the 9 ms messages wherever it likes — and the
    tight-stability "crowd" plus the loose pair deterministically land on
    positions that leave no room for the 4.5 ms app's second message, so
    stage 1 is unsat even though the monolithic formulation is sat.  With
    ``repair=True`` the failing check's unsat core names exactly the
    blocking frozen messages; unfreezing them and re-solving stage 1
    jointly recovers the instance (see ``tests/core/test_repair.py``).
    """
    hyper = Fraction(9, 1000)
    e2e_min = Fraction(3010, 1000000)  # 2*(sd+ld) + ld on the direct route
    net = bottleneck_network(6)
    apps = [
        ControlApplication(
            "x", "S0", "C0", hyper / 2,
            StabilitySpec.single_line("1.5", str(float(hyper / 2))),
        )
    ]
    crowd_beta = e2e_min + Fraction(45, 10000)
    for j in range(3):
        apps.append(
            ControlApplication(
                f"c{j}", f"S{j + 1}", f"C{j + 1}", hyper,
                StabilitySpec.single_line("1.5", str(float(crowd_beta))),
            )
        )
    for j in range(2):
        i = 4 + j
        apps.append(
            ControlApplication(
                f"a{j}", f"S{i}", f"C{i}", hyper,
                StabilitySpec.single_line("1.5", str(float(hyper))),
            )
        )
    return SynthesisProblem(net, apps, BOTTLENECK_DELAYS)


def sharing_problem(n_apps: int = 4, islands: int = 2) -> SynthesisProblem:
    """The portfolio knowledge-sharing workload (deterministic).

    A satisfiable funnel instance on which a ``routes-1`` strategy
    *provably* prunes ``routes-2``'s search: the per-app delay bounds
    admit fewer direct A->B transmission slots than there are funnel
    messages, so restricting every app to its single shortest route is
    infeasible — ``routes-1`` returns a genuine unsat (single-stage, no
    heuristic freezes) whose route veto says "not every message fits
    within its first candidate".  ``routes-2`` sees the relief path
    through ``D`` and is sat; seeded with the veto (plus routes-1's
    learned clauses, padded with the second-route selectors), its solver
    refutes the doomed all-shortest subtree by unit propagation instead
    of search, so the race's summed conflict count drops while statuses
    and the certified schedule stay identical.  The ``islands`` add
    independent apps whose shortest routes are always feasible — they
    enlarge the veto clause and the shared search space without changing
    any status.  Island stability bounds are pinned to the minimal
    end-to-end delay, so their schedules are *unique*: the sat model is
    identical with sharing on and off (the regression test asserts it).
    """
    n_apps = max(n_apps, 3)
    period = Fraction(9, 1000)
    sd, ld = BOTTLENECK_DELAYS.sd, BOTTLENECK_DELAYS.ld
    hop = sd + ld
    direct_min = 2 * hop + ld   # tightest e2e on the 2-switch direct route
    relief_min = 3 * hop + ld   # tightest e2e via the relief switch D
    net = bottleneck_network(n_apps, islands=islands)
    # Per-app delay bounds pin a *unique* schedule: app0 must take the
    # direct link's first transmission slot (beta = direct_min), app1 the
    # second, app3.. the following ones (one link delay later each), and
    # app2 can afford neither a direct slot behind them nor a delayed
    # relief detour — only the relief path at its exact minimum.  So the
    # all-shortest-routes selection is infeasible (routes-1 proves unsat)
    # while routes-2 has exactly one model.
    betas = [direct_min, direct_min + ld, relief_min]
    betas += [direct_min + (i - 1) * ld for i in range(3, n_apps)]
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", period,
            StabilitySpec.single_line("1", str(Fraction(betas[i]))),
        )
        for i in range(n_apps)
    ]
    for k in range(islands):
        pre = f"I{k}."
        apps.append(
            ControlApplication(
                f"island{k}", pre + "S", pre + "C", period,
                StabilitySpec.single_line("1", str(Fraction(direct_min))),
            )
        )
    return SynthesisProblem(net, apps, BOTTLENECK_DELAYS)


def slow_funnel_problem() -> SynthesisProblem:
    """Seconds inside every monolithic ``check()``: a deadline or a
    cancel arrives while the engine is still searching.

    Nine apps on the 7 ms funnel, whose direct link holds four messages
    and relief path three: the instance is unsat, and refuting it is a
    pigeonhole proof (about 9,300 conflicts, ~10 s on a 2-core x86 box)
    that no check of the probe ladder short-cuts, so a stopped
    solve can only answer ``unknown``.  Contention clauses are added
    only when a model violates them, so instances that are merely large
    (the GM case study at ten apps) solve in well under a second; this
    one is slow because of the search itself.
    """
    return bottleneck_problem(9, period=Fraction(7, 1000))


def sharing_unsat_problem(n_apps: int = 3, islands: int = 1) -> SynthesisProblem:
    """Infeasible companion of :func:`sharing_problem` (deterministic).

    The funnel period is shrunk below the relief path's latency, so the
    instance is unsat under *any* route selection.  In a shared-knowledge
    race ordered ``routes-2, routes-1, monolithic``, routes-2's genuine
    unsat proof exports its learned clauses and the route veto covering
    both candidates; seeded with them, routes-1 refutes by the veto's
    empty escape clause and the monolithic (complete) strategy proves
    unsat by propagation alone — supplying the race's sound ``unsat``
    verdict at a fraction of the unshared conflict count.
    """
    return bottleneck_problem(n_apps, period=Fraction(35, 10000),
                              islands=islands)


def detour_problem() -> SynthesisProblem:
    """A flow whose shortest route is not its first in depth-first order.

    App ``m`` reaches ``C0`` either over ``M``-``N`` (two switches) or
    along the detour ``A1``-``A2``-``A3`` (three).  Two blockers cross
    ``M``-``N`` too, and their bounds take its first two transmission
    slots, while ``m``'s bound admits the detour only at its exact
    minimum.  So ``routes=1`` (``m`` on ``M``-``N``) is a genuine unsat
    while the complete formulation is sat.  Depth-first enumeration
    from ``S0`` reaches the detour first (``A1`` sorts before ``M``),
    which makes this the case that catches a route index naming
    different routes under different route limits.
    """
    net = Network()
    for sw in ("M", "N", "A1", "A2", "A3"):
        net.add_switch(sw)
    for u, v in (("M", "N"), ("A1", "A2"), ("A2", "A3")):
        net.add_link(u, v)
    net.add_sensor("S0")
    net.add_controller("C0")
    for u, v in (("S0", "M"), ("S0", "A1"), ("N", "C0"), ("A3", "C0")):
        net.add_link(u, v)
    for i in range(2):
        net.add_sensor(f"SB{i}")
        net.add_controller(f"CB{i}")
        net.add_link(f"SB{i}", "M")
        net.add_link("N", f"CB{i}")
    sd, ld = BOTTLENECK_DELAYS.sd, BOTTLENECK_DELAYS.ld
    hop = sd + ld
    period = Fraction(9, 1000)
    bounds = [("m", "S0", "C0", 3 * hop + ld),
              ("b0", "SB0", "CB0", 2 * hop + ld),
              ("b1", "SB1", "CB1", 2 * hop + 2 * ld)]
    apps = [
        ControlApplication(name, sensor, controller, period,
                           StabilitySpec.single_line("1", str(beta)))
        for name, sensor, controller, beta in bounds
    ]
    return SynthesisProblem(net, apps, BOTTLENECK_DELAYS)


# ---------------------------------------------------------------------------
# Difference-chain workloads
# ---------------------------------------------------------------------------


def chain_network(n_apps: int, n_switches: int) -> Network:
    """``n_apps`` sensor/controller pairs across one line of switches.

    Every message traverses the whole line, so its per-hop release
    times form one long difference chain and all messages contend on
    every link — the transposition/contention constraints then relate
    release times *across* chains.
    """
    net = Network()
    for k in range(n_switches):
        net.add_switch(f"A{k}")
        if k:
            net.add_link(f"A{k - 1}", f"A{k}")
    for i in range(n_apps):
        net.add_sensor(f"S{i}")
        net.add_controller(f"C{i}")
        net.add_link(f"S{i}", "A0")
        net.add_link(f"A{n_switches - 1}", f"C{i}")
    return net


def chain_problem(
    n_apps: int = 4,
    n_switches: int = 5,
    period: Fraction = Fraction(95, 10000),
) -> SynthesisProblem:
    """A deterministic line-topology instance (difference-chain-heavy).

    There is exactly one route per application (the line), so the whole
    search is about serializing ``n_apps`` messages on every shared
    link of a ``n_switches``-hop path under end-to-end bounds — long
    per-message precedence chains coupled by contention constraints.
    The default 9.5 ms period is tight but satisfiable; shrinking to
    9 ms makes the line infeasible.
    """
    net = chain_network(n_apps, n_switches)
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", period,
            StabilitySpec.single_line("1.5", str(float(period))),
        )
        for i in range(n_apps)
    ]
    return SynthesisProblem(net, apps, BOTTLENECK_DELAYS)


# ---------------------------------------------------------------------------
# The General Motors case study (Table I)
# ---------------------------------------------------------------------------

#: The five published rows of Table I: (period ms, alpha, beta ms).
TABLE1_ROWS: Tuple[Tuple[int, str, str], ...] = (
    (20, "1.53", "27.78"),
    (40, "2.27", "15.70"),
    (50, "1.07", "80.71"),
    (40, "2.27", "15.70"),
    (50, "1.07", "80.71"),
)

#: Stability parameters per period for the remaining 15 GM applications
#: (the paper publishes one (alpha, beta) pair per period class).
_GM_BY_PERIOD = {20: ("1.53", "27.78"), 40: ("2.27", "15.70"),
                 50: ("1.07", "80.71")}

#: Period mix (a, b, c) = #apps at (20, 40, 50) ms: the unique-ish mix with
#: 3*10 + 8*5 + 9*4 = 106 messages whose first five entries can match the
#: published rows (see tests/network/test_frames.py).
GM_PERIOD_MIX = (3, 8, 9)


def gm_case_study(
    n_apps: int = 20,
    delays: Optional[DelayModel] = None,
) -> SynthesisProblem:
    """The Table I problem: 20 apps, Fig. 1 topology, 106 messages.

    ``n_apps < 20`` scales the case study down (keeping the Table I rows
    first) for quick runs; the message mix stays proportional.
    """
    delays = delays or DelayModel.table1()
    periods_ms: List[int] = [p for p, _, _ in TABLE1_ROWS]
    a, b, c = GM_PERIOD_MIX
    remaining = [20] * (a - 1) + [40] * (b - 2) + [50] * (c - 2)
    periods_ms.extend(remaining)
    periods_ms = periods_ms[:n_apps]
    net = gm_topology(len(periods_ms), len(periods_ms))
    apps = []
    for i, period_ms in enumerate(periods_ms):
        alpha, beta_ms = _GM_BY_PERIOD[period_ms]
        spec = StabilitySpec.single_line(alpha, str(Fraction(beta_ms) / 1000))
        apps.append(
            ControlApplication(
                name=f"gm{i}",
                sensor=f"S{i}",
                controller=f"C{i}",
                period=Fraction(period_ms, 1000),
                stability=spec,
            )
        )
    return SynthesisProblem(net, apps, delays)
