"""Simplex-kernel microbench: pivots per second on recorded staged checks.

Two staged synthesis runs -- ``gm_case_study(4)`` and a cross-wired
variant of it (same Fig. 1 topology and Table I stability rows, sensor
``i`` talking to controller ``i + 1``) -- are encoded and solved **once**
with a recording ``Simplex`` in the theory's place.  That yields, per
engine the run created, the exact sequence of ``new_var`` / ``add_row`` /
``scaled_bound`` / ``assert_lower`` / ``assert_upper`` / ``check`` /
``undo_to`` calls the staged checks made.  The timed part replays those
sequences on fresh ``Simplex`` objects: nothing but the kernel runs (no
encoder, no SAT core, no difference logic, no propagation watches), so
wall time moves only with the tableau code.  Bounds are asserted as the
integer pairs the theory handed over, which are in the engine's scale of
that moment; ``scaled_bound`` is replayed because it is one of the calls
that grow the scale, so the fresh engine is in the same scale at the same
step.  The replay must reproduce every recorded verdict, the pivot count
must be the same in every round, and at the default size it must be the
152 pivots the recorded search takes (114 at the CI smoke size).  The
count is a property of the search, not of the tableau: it was 629 / 508
under every representation of the tableau while the SAT core still
decided don't-care atoms, and moved only with the search: 246 / 184 with
the relevancy filter (docs/perf.md, "Relevancy-filtered decisions"),
236 / 191 with lazy contention, 159 / 119 once frozen messages entered
the stability rows as constants, 152 / 114 once the transitive
difference-logic propagation pass was deleted.

Reported per round and as median / IQR over the rounds: pivots, wall,
pivots per second; and once, the bit length of the largest final scale
(a few dozen bits on the paper's timing constants -- a scale that kept
growing is the one way integer betas could lose to ``Fraction`` ones).
The numbers in docs/perf.md ("Fraction-free simplex rows", "Fractions
leave the search loop") come from this script.

Usage:
    PYTHONPATH=src python benchmarks/simplex_pivots.py [rounds] [n_apps]
"""

import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import SynthesisOptions, SynthesisProblem, solve  # noqa: E402
from repro.eval.workloads import gm_case_study  # noqa: E402
from repro.smt import theory  # noqa: E402
from repro.smt.simplex import Simplex  # noqa: E402

#: The mutating calls of the kernel's public surface, as LraTheory uses it
#: (``watch_var`` is left out: it only feeds theory propagation).
RECORDED = ("new_var", "add_row", "scaled_bound", "assert_lower",
            "assert_upper", "check", "undo_to")
#: Those of them that answer None or a conflict explanation.
VERDICTS = ("assert_lower", "assert_upper", "check")
#: n_apps -> pivots of one replay (4 is the default size, 3 the CI
#: smoke); re-recorded when the search changes, never for a kernel change.
EXPECTED_PIVOTS = {3: 114, 4: 152}


def cross_wired(n_apps):
    """The GM case study with sensor i talking to controller i + 1."""
    base = gm_case_study(n_apps)
    apps = [replace(app, controller=f"C{(i + 1) % n_apps}")
            for i, app in enumerate(base.apps)]
    return SynthesisProblem(base.network, apps, base.delays)


def conflicted(name, result):
    """What a replay must reproduce of a kernel call: did it conflict."""
    return name in VERDICTS and result is not None


def _recorded(base, name, observe):
    method = getattr(base, name)

    def call(self, *args):
        if self.nested:         # add_row allocating its slack variable
            return method(self, *args)
        self.nested = True
        try:
            result = method(self, *args)
        finally:
            self.nested = False
        self.trace.append((name, args, observe(name, result)))
        return result
    return call


def record(problem, options, base=Simplex, recorded=RECORDED,
           observe=conflicted):
    """Solve once with a recording subclass of ``base`` in the theory's
    place; return one call trace per engine the run created.

    A trace is ``(constructor kwargs, [(method, args, observed), ...])``.
    (Also the recorder of ``difflogic_relax.py``.)
    """
    traces = []

    class Recording(base):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.trace = []
            self.nested = False
            traces.append((kwargs, self.trace))

    for name in recorded:
        setattr(Recording, name, _recorded(base, name, observe))
    setattr(theory, base.__name__, Recording)
    try:
        result = solve(problem, options)
    finally:
        setattr(theory, base.__name__, base)
    return result.status, traces


def replay(traces):
    """Run every trace on a fresh Simplex; returns (pivots, wall seconds,
    bit length of the largest final scale)."""
    pivots = scale_bits = 0
    start = time.perf_counter()
    for kwargs, trace in traces:
        sx = Simplex(**kwargs)
        for name, args, seen in trace:
            result = getattr(sx, name)(*args)
            if name in VERDICTS:
                assert (result is not None) == seen, (
                    "replay diverged from the recorded run")
        pivots += sx.pivots
        scale_bits = max(scale_bits, sx.scale.bit_length())
    return pivots, time.perf_counter() - start, scale_bits


def median_iqr(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    n_apps = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    options = SynthesisOptions(routes=2, stages=5)
    traces = []
    for name, problem in (("gm", gm_case_study(n_apps)),
                          ("gm-cross", cross_wired(n_apps))):
        status, recorded = record(problem, options)
        calls = sum(len(trace) for _, trace in recorded)
        checks = sum(1 for _, trace in recorded for call in trace
                     if call[0] == "check")
        print(f"recorded {name}({n_apps}): {status}, {len(recorded)} "
              f"engine(s), {calls} kernel calls, {checks} checks")
        traces.extend(recorded)
    walls, rates, counts = [], [], set()
    for r in range(rounds):
        pivots, wall, scale_bits = replay(traces)
        counts.add(pivots)
        walls.append(wall)
        rates.append(pivots / wall)
        print(f"[round {r + 1}] {pivots} pivots  {wall:6.3f}s  "
              f"{pivots / wall:>8,.0f} pivots/s")
    assert len(counts) == 1, f"pivot count varies between rounds: {counts}"
    if n_apps in EXPECTED_PIVOTS:
        assert counts == {EXPECTED_PIVOTS[n_apps]}, f"the search moved: {counts}"
    wall_med, wall_iqr = median_iqr(walls)
    rate_med, rate_iqr = median_iqr(rates)
    print(f"pivots {counts.pop()}  wall median {wall_med:.3f}s "
          f"(IQR {wall_iqr:.3f})  pivots/s median {rate_med:,.0f} "
          f"(IQR {rate_iqr:,.0f})  over {rounds} round(s)")
    print(f"largest final scale: {scale_bits} bits")


if __name__ == "__main__":
    main()
