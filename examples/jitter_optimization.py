#!/usr/bin/env python3
"""Extension: jitter-*minimizing* synthesis.

The paper synthesizes any schedule satisfying the stability constraints;
this example uses the optimization layer to push applications deep into
their stability regions, comparing the paper's feasibility formulation
against total-jitter minimization, and exports the optimized schedule as
JSON and as per-switch 802.1Qbv configuration.

Run:  python examples/jitter_optimization.py
"""

import json
from fractions import Fraction

from repro.core import (
    ControlApplication,
    SynthesisOptions,
    SynthesisProblem,
    minimize_jitter,
    render_switch_configs,
    solution_to_dict,
    solve,
    validate_solution,
)
from repro.network import DelayModel, microseconds, simple_testbed
from repro.stability import StabilitySpec


def main() -> None:
    net = simple_testbed(3)
    delays = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))
    spec = StabilitySpec.single_line("1.5", "0.006")
    apps = [
        ControlApplication(f"app{i}", f"S{i}", f"C{i}", Fraction(5, 1000), spec)
        for i in range(3)
    ]
    problem = SynthesisProblem(net, apps, delays)

    feasible = solve(problem, SynthesisOptions(routes=2))
    assert feasible.ok
    refined = minimize_jitter(problem, routes=2, tolerance=Fraction(1, 10**6))
    assert refined.ok
    validate_solution(refined.solution)

    print("app      feasible J (ms)   optimized J (ms)   margin gain (ms)")
    for app in apps:
        rf = feasible.solution.app_report(app.name)
        ro = refined.solution.app_report(app.name)
        print(f"{app.name:8s} {float(rf.jitter) * 1000:13.3f} "
              f"{float(ro.jitter) * 1000:17.3f} "
              f"{(ro.margin - rf.margin) * 1000:15.3f}")
    total_f = sum(r.jitter for r in feasible.solution.reports())
    total_o = sum(r.jitter for r in refined.solution.reports())
    print(f"\ntotal jitter: {float(total_f) * 1000:.3f} ms -> "
          f"{float(total_o) * 1000:.3f} ms "
          f"({refined.probes} optimization probes)")

    blob = json.dumps(solution_to_dict(refined.solution))
    print(f"\nserialized schedule: {len(blob)} bytes of JSON")
    print("\nfirst lines of the switch configuration:")
    print("\n".join(render_switch_configs(refined.solution).splitlines()[:12]))


if __name__ == "__main__":
    main()
