"""SAT-core throughput microbench: propagations per second.

Two workloads, both pure SAT on the CDCL core:

* ``[n_holes]`` refutes the pigeonhole formula PHP(n+1, n) -- 3,200
  conflicts at the default size, restarts and learnt-DB churn included.
* ``incremental [k]`` solves ``k`` planted random 3-SAT formulas one
  after another on one solver, the way a push/pop session drives it:
  formula i's clauses all carry the guard literal ``~a_i``, the solve
  assumes ``a_i``, and the root unit ``~a_i`` disables the formula
  afterwards.  Every later solve runs beside the clauses of the
  formulas disabled before it.

Each reports wall time and propagations per second, per round and as
median / IQR over the rounds.  The search is deterministic, so every
round must walk the same trajectory (conflicts, decisions,
propagations, restarts), and at the sizes in ``EXPECTED`` /
``EXPECTED_INCREMENTAL`` it must be the pinned one: a change to the
core's data layout or loops must leave it alone, and only a change to
the search itself may re-record it.  That the core walks the same tree
as the frozen pre-arena solver is checked in
``tests/sat/test_differential.py``, not here.  The tables in
docs/perf.md ("The SAT core") come from this script.

Usage:
    PYTHONPATH=src python benchmarks/sat_throughput.py [n_holes] [rounds]
    PYTHONPATH=src python benchmarks/sat_throughput.py incremental [k] [rounds]
"""

import random
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

#: k -> the same four counters after the k guarded formulas of
#: :func:`run_incremental` (24 is the default, 8 the CI smoke).
EXPECTED_INCREMENTAL = {8: (297, 562, 8017, 1), 24: (1770, 2830, 44167, 9)}

#: Shape of one formula of the incremental workload: planted 3-SAT at
#: the threshold ratio, so search does the work and every answer is sat.
_INCREMENTAL_VARS = 100
_INCREMENTAL_RATIO = 4.26


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


def _planted_3sat(rng, xs):
    """Clauses over ``xs`` that a random planted assignment satisfies."""
    planted = [rng.random() < 0.5 for _ in xs]
    clauses = []
    while len(clauses) < int(round(_INCREMENTAL_RATIO * len(xs))):
        picks = rng.sample(range(len(xs)), 3)
        signs = [rng.random() < 0.5 for _ in picks]
        if any(planted[i] == s for i, s in zip(picks, signs)):
            clauses.append([lit(xs[i], s) for i, s in zip(picks, signs)])
    return clauses


def run_incremental(k):
    rng = random.Random(0)
    s = SatSolver()
    xs = [s.new_var() for _ in range(_INCREMENTAL_VARS)]
    formulas = [_planted_3sat(rng, xs) for _ in range(k)]
    start = time.perf_counter()
    for clauses in formulas:
        guard = s.new_var()
        for clause in clauses:
            s.add_clause([lit(guard, False)] + clause)
        assert s.solve([lit(guard, True)]) is True, "planted formula is sat"
        s.add_clause([lit(guard, False)])
    wall = time.perf_counter() - start
    return wall, s.statistics


def median_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def main():
    args = sys.argv[1:]
    incremental = bool(args) and args[0] == "incremental"
    if incremental:
        args = args[1:]
        run, expected = run_incremental, EXPECTED_INCREMENTAL
    else:
        run, expected = run_one, EXPECTED
    size = int(args[0]) if args else (24 if incremental else 7)
    rounds = int(args[1]) if len(args) > 1 else 5
    trajectories, rates = set(), []
    for r in range(rounds):
        wall, stats = run(size)
        trajectories.add((stats["conflicts"], stats["decisions"],
                          stats["propagations"], stats["restarts"]))
        rates.append(stats["propagations"] / wall)
        print(f"[round {r + 1}] {wall:6.3f}s  {rates[-1]:>9,.0f} props/s  "
              f"(conflicts={stats['conflicts']}, "
              f"restarts={stats['restarts']}, "
              f"live clauses={stats['clauses']})")
    assert len(trajectories) == 1, (
        f"the search varies between rounds: {trajectories}")
    trajectory = trajectories.pop()
    if size in expected:
        assert trajectory == expected[size], (
            f"the search moved: {trajectory} != {expected[size]}")
    rate_med, rate_iqr = median_iqr(rates)
    print(f"trajectory (conflicts, decisions, propagations, restarts) "
          f"{trajectory}  props/s median {rate_med:,.0f} "
          f"(IQR {rate_iqr:,.0f})  over {rounds} round(s)")


if __name__ == "__main__":
    main()
