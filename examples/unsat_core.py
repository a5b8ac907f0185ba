#!/usr/bin/env python3
"""Unsat cores and assumptions with the session API.

Walks the three layers of the new ``repro.api`` surface:

1. a raw :class:`~repro.api.Session` with assumption literals and a
   deletion-minimized unsat core,
2. the serialization backend producing an SMT-LIB2 script for the same
   check, and
3. the synthesis driver's unsat cores on a contention-tight network —
   the route loop extends exactly the messages a core names, and
   core-driven repair recovers the staged-heuristic trap.

Run:  python examples/unsat_core.py
"""

from fractions import Fraction

from repro.api import Session
from repro.core import SynthesisOptions, solve
from repro.eval.workloads import bottleneck_problem, bottleneck_repair_problem
from repro.smt import Bool, Not, Or, Real


def session_basics() -> None:
    # Three machines, one shared budget: the session decides which
    # combination of requests is jointly impossible — and *why*.
    m1, m2, m3 = Real("m1"), Real("m2"), Real("m3")
    hi1, hi2, hi3 = Bool("hi1"), Bool("hi2"), Bool("hi3")
    with Session() as s:
        s.add(m1 >= 0, m2 >= 0, m3 >= 0, m1 + m2 + m3 <= 10)
        s.add(Or(Not(hi1), m1 >= 6))
        s.add(Or(Not(hi2), m2 >= 6))
        s.add(Or(Not(hi3), m3 >= 1))

        out = s.check(hi1, hi2, hi3)
        print(f"assume all three high: {out.status}")
        core = out.unsat_core
        print(f"  minimized core ({len(core)} of {len(out.assumptions)} "
              f"assumptions): {list(core)}")
        assert set(core) == {hi1, hi2}  # hi3 is innocent

        out = s.check(core)
        print(f"  re-checking only the core: {out.status}")
        assert out == "unsat"

        out = s.check(hi1, hi3)
        print(f"  dropping one core member: {out.status} "
              f"(m1={out.model[m1]}, m3={out.model[m3]})")


def serialization_backend() -> None:
    m1, m2 = Real("m1"), Real("m2")
    hi1, hi2 = Bool("hi1"), Bool("hi2")
    s = Session(backend="serialization")
    s.add(m1 >= 0, m2 >= 0, m1 + m2 <= 10)
    s.add(Or(Not(hi1), m1 >= 6), Or(Not(hi2), m2 >= 6))
    out = s.check(hi1, hi2)
    print(f"\nserialization backend agrees: {out.status}")
    print("the check as an SMT-LIB2 script:")
    for line in s.backend.last_script.strip().splitlines():
        print(f"  {line}")


def synthesis_cores() -> None:
    # Three apps funnelled through one link: every all-shortest-routes
    # selection is infeasible, but the instance is satisfiable.  The
    # first check's core names funnel messages only, so they get their
    # second route and the island keeps its shortest one.
    result = solve(bottleneck_problem(3, islands=1),
                   SynthesisOptions(routes=2))
    stats = result.statistics
    island = next(s for s in result.solution.schedules.values()
                  if s.app == "island0")
    print(f"\nfunnel synthesis: {result.status} "
          f"(route extension rounds {stats['route_extensions']}, "
          f"island route {'-'.join(island.route)})")
    assert result.ok and stats["route_extensions"] > 0

    # Infeasible variant: period below the relief path's latency.
    result = solve(bottleneck_problem(3, period=Fraction(35, 10000)),
                   SynthesisOptions(routes=2))
    print(f"shrunk period: {result.status} "
          f"(failed stage {result.failed_stage})")
    assert not result.ok

    # The staged-heuristic trap: stage-0 freezes block stage 1 ...
    trapped = solve(bottleneck_repair_problem(),
                    SynthesisOptions(routes=2, stages=2))
    print(f"staged heuristic on the trap: {trapped.status}")
    # ... and core-driven repair recovers it.
    repaired = solve(bottleneck_repair_problem(),
                     SynthesisOptions(routes=2, stages=2, repair=True))
    stats = repaired.statistics
    print(f"with repair=True: {repaired.status} "
          f"(stage repairs {stats['stage_repairs']}, "
          f"cores {stats['cores_extracted']})")
    assert not trapped.ok and repaired.ok


def main() -> None:
    session_basics()
    serialization_backend()
    synthesis_cores()
    print("\nall demonstrations passed")


if __name__ == "__main__":
    main()
