"""The route loop on the paper's random networks.

Solves ``random_problem(seed, n_apps=10)`` for ``seed`` in
``0..seeds-1`` in complete mode (every simple route a candidate, one
stage) and under the route-subset heuristic at routes 4, with one stage
and with five, and certifies every ``sat`` with the independent
validator.  Exits non-zero when a solve answers neither ``sat`` nor
``unsat``, a ``sat`` does not certify, or a solve takes longer than
``limit_s`` seconds (default 60, the ledger's per-op limit).

Usage::

    PYTHONPATH=src python benchmarks/complete_paper_scale.py [seeds] [limit_s]
"""

from __future__ import annotations

import sys
import time

from repro.core import SynthesisOptions, collect_violations, solve
from repro.eval.workloads import random_problem

#: The configurations every seed is solved in.
CONFIGURATIONS = (SynthesisOptions(routes=None),
                  SynthesisOptions(routes=4),
                  SynthesisOptions(routes=4, stages=5))


def main(seeds: int = 10, limit_s: float = 60.0) -> int:
    failures = 0
    for seed in range(seeds):
        problem = random_problem(seed, n_apps=10)
        for options in CONFIGURATIONS:
            t0 = time.perf_counter()
            result = solve(problem, options)
            wall = time.perf_counter() - t0
            verdict = result.status
            if result.ok and collect_violations(result.solution):
                verdict = "sat, NOT certified"
            elif result.ok:
                verdict = "sat, certified"
            bad = (result.status not in ("sat", "unsat")
                   or verdict == "sat, NOT certified" or wall > limit_s)
            failures += bad
            print(f"seed {seed} routes={options.routes} "
                  f"stages={options.stages}: {verdict} in {wall:.2f} s, "
                  f"{result.statistics['route_extensions']} route "
                  f"extension rounds{'  <-- FAIL' if bad else ''}")
    return 1 if failures else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(int(args[0]) if args else 10,
                  float(args[1]) if len(args) > 1 else 60.0))
