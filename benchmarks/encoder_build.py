"""Encode-path microbench: assertions per second, nothing solved.

``gm_case_study(n)`` and the cross-wired variant of it (same Fig. 1
topology and Table I stability rows, sensor ``i`` talking to controller
``i + 1``) are encoded at routes=3 into a fresh native ``Session`` --
``encode_message`` plus ``reach_route`` to each message's third route
(the driver encodes a route only when an unsat core asks for it, so
without it only shortest routes would be built), and
``add_stability_constraints``, one pass per stage slice (stages=5) --
and ``check()`` is never called.  Eq. 5's pair
clauses are not part of the pass: they are added only when a model
overlaps a pair, and no model exists here.  Wall time therefore moves
only with the construction
path: ``Encoder`` -> ``smt/terms.py`` -> ``CnfConverter`` ->
``LraTheory.register_atom`` -> ``Simplex.add_row``.

One untimed pass counts the ``Atom`` objects the term layer builds; the
timed rounds run the code as it ships.  Every count must be the same in
every round, and at the default size and the CI smoke size it must be
the pinned ``EXPECTED`` tuple: the counts describe the formula's shape,
so a drift there is a formula change, never a speed-up.

Reported per round and as median / IQR over the rounds: messages,
assertions, atoms built vs atoms registered, slack rows, wall,
assertions per second; and the encode layer's own unit costs, wall
microseconds per registered atom and GC-tracked objects per registered
atom (the ``gc.get_objects()`` growth of one untimed pass, measured
after a full collection with every session still alive).  The numbers
in docs/perf.md ("The encode path builds each thing once") come from
this script.

Usage:
    PYTHONPATH=src python benchmarks/encoder_build.py [rounds] [n_apps]
"""

import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session  # noqa: E402
from repro.core import Encoder  # noqa: E402
from repro.core.synthesizer import _slice_messages  # noqa: E402
from repro.eval.workloads import gm_case_study  # noqa: E402
from repro.smt import terms  # noqa: E402
from simplex_pivots import cross_wired, median_iqr  # noqa: E402

ROUTES = 3
STAGES = 5
#: n_apps -> (messages, assertions, atoms built, atoms registered, slack
#: rows) of one pass; re-recorded only with a change to the formula (the
#: assertions went 1,405 / 1,806 -> 1,481 / 1,902 when a route limit
#: became an assumption: two more per message, the beyond literals'
#: chain).
EXPECTED = {3: (38, 1481, 1611, 756, 514), 4: (48, 1902, 2072, 971, 659)}


def encode(problem):
    """Encode every stage slice of ``problem``; returns the counts and
    the session, which holds the formula."""
    session = Session()
    encoder = Encoder(problem, session, ROUTES, namespace="p")
    for stage, messages in enumerate(_slice_messages(problem, STAGES)):
        if not messages:
            continue
        for message in messages:
            encoder.encode_message(message)
            encoder.reach_route(message.uid, ROUTES)
        for name in sorted({m.flow.name for m in messages}):
            encoder.add_stability_constraints(
                problem.app_by_name[name], tag=f"s{stage}")
    theory = session.backend.engine._theory
    return (len(encoder.plans), len(session.assertions),
            len(theory._atoms), len(theory._slack_cache)), session


def encode_all(problems):
    """``(messages, assertions, atoms registered, slack rows)`` summed."""
    return tuple(map(sum, zip(*(encode(problem)[0] for problem in problems))))


def tracked_objects(problems):
    """GC-tracked objects one untimed pass leaves alive."""
    gc.collect()
    before = len(gc.get_objects())
    # The sessions hold the formula: they are alive when it is counted.
    sessions = [encode(problem)[1] for problem in problems]
    gc.collect()
    grown = len(gc.get_objects()) - before
    del sessions
    return grown


def count_atoms_built(problems):
    """One untimed pass with a counting ``Atom`` constructor."""
    built = 0
    init = terms.Atom.__init__

    def counting_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    terms.Atom.__init__ = counting_init
    try:
        encode_all(problems)
    finally:
        terms.Atom.__init__ = init
    return built


def main():
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    n_apps = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    problems = [gm_case_study(n_apps), cross_wired(n_apps)]
    built = count_atoms_built(problems)
    objects = tracked_objects(problems)
    walls, rates, counts = [], [], set()
    for r in range(rounds):
        start = time.perf_counter()
        result = encode_all(problems)
        wall = time.perf_counter() - start
        counts.add(result)
        walls.append(wall)
        rates.append(result[1] / wall)
        print(f"[round {r + 1}] {result[1]} assertions  {wall:6.3f}s  "
              f"{result[1] / wall:>8,.0f} assertions/s")
    assert len(counts) == 1, f"counts vary between rounds: {counts}"
    messages, assertions, registered, rows = counts.pop()
    if n_apps in EXPECTED:
        assert (messages, assertions, built, registered, rows) == (
            EXPECTED[n_apps]), "the formula moved"
    wall_med, wall_iqr = median_iqr(walls)
    rate_med, rate_iqr = median_iqr(rates)
    print(f"gm({n_apps}) + gm-cross({n_apps}), routes={ROUTES}, "
          f"{STAGES} stage slices: messages {messages}  "
          f"assertions {assertions}  atoms built {built} / registered "
          f"{registered}  slack rows {rows}")
    print(f"wall median {wall_med:.3f}s (IQR {wall_iqr:.3f})  "
          f"assertions/s median {rate_med:,.0f} (IQR {rate_iqr:,.0f})  "
          f"over {rounds} round(s)")
    print(f"per registered atom: {wall_med / registered * 1e6:.1f} us "
          f"(IQR {wall_iqr / registered * 1e6:.1f}), "
          f"{objects / registered:.1f} GC-tracked objects")


if __name__ == "__main__":
    main()
