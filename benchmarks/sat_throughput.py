"""SAT-core throughput microbench: propagations per second on PHP(n+1, n).

The CDCL core refutes the pigeonhole formula PHP(n+1, n) -- pure SAT,
3,200 conflicts at the default size, restarts and learnt-DB churn
included -- and reports wall time and propagations per second, per
round and as median / IQR over the rounds.  The search is deterministic,
so every round must walk the same trajectory (conflicts, decisions,
propagations, restarts), and at the sizes in ``EXPECTED`` it must be the
pinned one: a change to the core's data layout or loops must leave it
alone, and only a change to the search itself may re-record it.  That
the core walks the same tree as the frozen pre-arena solver is checked
in ``tests/sat/test_differential.py``, not here.  The tables in
docs/perf.md ("The SAT core") come from this script.

Usage:
    PYTHONPATH=src python benchmarks/sat_throughput.py [n_holes] [rounds]
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sat.literals import lit  # noqa: E402
from repro.sat.solver import SatSolver  # noqa: E402

#: n_holes -> (conflicts, decisions, propagations, restarts) of one
#: refutation (7 is the default size, 6 the CI smoke); re-recorded when
#: the search changes, never for a change of layout or loops.
EXPECTED = {6: (609, 734, 7022, 5), 7: (3200, 3941, 38668, 14)}


def _pigeonhole(solver, n_pigeons, n_holes):
    var = [[solver.new_var() for _ in range(n_holes)]
           for _ in range(n_pigeons)]
    for p in range(n_pigeons):
        solver.add_clause([lit(var[p][h], True) for h in range(n_holes)])
    for h in range(n_holes):
        for p1 in range(n_pigeons):
            for p2 in range(p1 + 1, n_pigeons):
                solver.add_clause([lit(var[p1][h], False),
                                   lit(var[p2][h], False)])


def run_one(n_holes):
    s = SatSolver()
    _pigeonhole(s, n_holes + 1, n_holes)
    start = time.perf_counter()
    verdict = s.solve()
    wall = time.perf_counter() - start
    assert verdict is False, "PHP(n+1, n) must be unsat"
    return wall, s.statistics


def median_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def main():
    n_holes = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    trajectories, rates = set(), []
    for r in range(rounds):
        wall, stats = run_one(n_holes)
        trajectories.add((stats["conflicts"], stats["decisions"],
                          stats["propagations"], stats["restarts"]))
        rates.append(stats["propagations"] / wall)
        print(f"[round {r + 1}] {wall:6.3f}s  {rates[-1]:>9,.0f} props/s  "
              f"(conflicts={stats['conflicts']}, "
              f"restarts={stats['restarts']})")
    assert len(trajectories) == 1, (
        f"the search varies between rounds: {trajectories}")
    trajectory = trajectories.pop()
    if n_holes in EXPECTED:
        assert trajectory == EXPECTED[n_holes], (
            f"the search moved: {trajectory} != {EXPECTED[n_holes]}")
    rate_med, rate_iqr = median_iqr(rates)
    print(f"trajectory (conflicts, decisions, propagations, restarts) "
          f"{trajectory}  props/s median {rate_med:,.0f} "
          f"(IQR {rate_iqr:,.0f})  over {rounds} round(s)")


if __name__ == "__main__":
    main()
