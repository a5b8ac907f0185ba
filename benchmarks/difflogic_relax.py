"""Difference-logic kernel microbench: asserts per second.

The same two staged synthesis runs as ``simplex_pivots.py`` --
``gm_case_study(4)`` and its cross-wired variant -- are solved **once**
with a recording ``DifferenceLogic`` in the theory's place.  That yields,
per engine the run created, the exact sequence of ``new_node`` /
``scaled_bound`` / ``assert_constraint`` / ``undo_to`` calls the staged
checks made.  The timed part replays those sequences on fresh engines:
potential restoration, negative-cycle explanation and the undo trail
run, and nothing else does (no encoder, no SAT core, no simplex).  Edge
weights are replayed as the integer pairs the theory handed over;
``scaled_bound`` is replayed because it is the call that grows the
engine's scale, so a fresh engine is in the same scale at the same step.
The replay must reproduce every recorded verdict (negative cycle or
not), and at the default size and the CI smoke size the recording's
totals must be the pinned ``EXPECTED`` ones: they belong to the recorded
search, so they are re-recorded with a search change, never with an
engine change.

Reported per round and as median / IQR over the rounds: wall and asserts
per second.  The numbers in docs/perf.md ("Fractions leave the search
loop") come from this script; they predate the deletion of the
transitive propagation pass, whose SSSP passes they also timed.

Usage:
    PYTHONPATH=src python benchmarks/difflogic_relax.py [rounds] [n_apps]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import SynthesisOptions  # noqa: E402
from repro.eval.workloads import gm_case_study  # noqa: E402
from repro.smt.difflogic import DifferenceLogic  # noqa: E402
from simplex_pivots import cross_wired, median_iqr, record  # noqa: E402

#: The mutating calls of the engine's public surface, as LraTheory uses it.
RECORDED = ("new_node", "scaled_bound", "assert_constraint", "undo_to")
#: n_apps -> (asserts, negative cycles) of the recording (4 is the
#: default size, 3 the CI smoke).
EXPECTED = {3: (988, 19), 4: (1380, 26)}


def observe(name, result):
    """What a replay must reproduce of a call: negative cycle or not."""
    if name == "assert_constraint":
        return result is not None
    return None


def replay(traces):
    """Run every trace on a fresh engine; returns (engines, wall seconds)."""
    engines = []
    start = time.perf_counter()
    for kwargs, trace in traces:
        dl = DifferenceLogic(**kwargs)
        for name, args, seen in trace:
            result = getattr(dl, name)(*args)
            if seen is not None:
                assert observe(name, result) == seen, (
                    "replay diverged from the recorded run")
        engines.append(dl)
    return engines, time.perf_counter() - start


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    n_apps = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    options = SynthesisOptions(routes=2, stages=5)
    traces = []
    for name, problem in (("gm", gm_case_study(n_apps)),
                          ("gm-cross", cross_wired(n_apps))):
        status, recorded = record(problem, options, base=DifferenceLogic,
                                  recorded=RECORDED, observe=observe)
        print(f"recorded {name}({n_apps}): {status}, {len(recorded)} "
              f"engine(s), {sum(len(t) for _, t in recorded)} kernel calls")
        traces.extend(recorded)
    calls = [call for _, trace in traces for call in trace]
    asserts = sum(1 for call in calls if call[0] == "assert_constraint")
    conflicts = sum(1 for call in calls
                    if call[0] == "assert_constraint" and call[2])
    engines, _ = replay(traces)
    scale_bits = max(dl.scale.bit_length() for dl in engines)
    print(f"{asserts} asserts ({conflicts} negative cycles), largest final "
          f"scale {scale_bits} bits")
    if n_apps in EXPECTED:
        assert (asserts, conflicts) == EXPECTED[n_apps], "the search moved"
    walls, assert_rates = [], []
    for r in range(rounds):
        _, wall = replay(traces)
        walls.append(wall)
        assert_rates.append(asserts / wall)
        print(f"[round {r + 1}] {wall:6.3f}s  {asserts / wall:>9,.0f} "
              f"asserts/s")
    wall_med, wall_iqr = median_iqr(walls)
    a_med, a_iqr = median_iqr(assert_rates)
    print(f"wall median {wall_med:.3f}s (IQR {wall_iqr:.3f})  asserts/s "
          f"median {a_med:,.0f} (IQR {a_iqr:,.0f})  over {rounds} round(s)")


if __name__ == "__main__":
    main()
