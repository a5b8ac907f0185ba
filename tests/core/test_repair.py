"""The route loop's unsat cores and core-driven stage repair.

The funnel workloads are constructed so both are exercised
deterministically: the shortest routes must fail on the contended
funnel (sat overall), the shrunk-period variant is infeasible outright,
and the repair problem is the staged-heuristic trap — stage-0 freezes
block stage 1 — that unsat cores recover.
"""

from fractions import Fraction

import pytest

from repro.api import Session
from repro.core import (
    Encoder,
    SynthesisOptions,
    collect_violations,
    solve,
    synthesizer,
)
from repro.eval.workloads import (
    bottleneck_problem,
    bottleneck_repair_problem,
)


class TestRouteLoop:
    def test_shortest_route_failure_extends_then_solves(self):
        result = solve(bottleneck_problem(3), SynthesisOptions(routes=2))
        assert result.ok
        assert collect_violations(result.solution) == []
        assert result.statistics["route_extensions"] >= 1

    def test_core_guided_extension_keeps_innocent_choices(self):
        """With an independent island, the core names only the funnel's
        messages, so only they get a second route (one round)."""
        result = solve(bottleneck_problem(3, islands=1),
                       SynthesisOptions(routes=2))
        assert result.ok
        assert result.statistics["route_extensions"] == 1
        # the island app kept its shortest route
        island = next(s for s in result.solution.schedules.values()
                      if s.app == "island0")
        assert island.route == ["I0.S", "I0.A", "I0.B", "I0.C"]

    def test_infeasible_instance_stays_unsat(self):
        result = solve(
            bottleneck_problem(3, period=Fraction(35, 10000)),
            SynthesisOptions(routes=2))
        assert not result.ok
        assert result.failed_stage == 0


class TestStageRepair:
    def test_trap_fails_without_repair(self):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2))
        assert not result.ok
        assert result.failed_stage == 1

    def test_monolithic_solves_the_trap(self):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=1))
        assert result.ok

    def test_repair_recovers_the_trap(self):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2, repair=True))
        assert result.ok
        assert collect_violations(result.solution) == []
        stats = result.statistics
        assert stats["stage_repairs"] >= 1
        assert stats["cores_extracted"] >= 1
        # every message still scheduled exactly once
        problem = bottleneck_repair_problem()
        assert set(result.solution.schedules) == {
            m.uid for m in problem.messages
        }

    def test_repair_does_not_change_sat_instances(self):
        plain = solve(bottleneck_problem(3),
                      SynthesisOptions(routes=2, stages=2))
        repaired = solve(bottleneck_problem(3),
                         SynthesisOptions(routes=2, stages=2, repair=True))
        assert plain.status == repaired.status == "sat"

    def test_repair_cannot_fix_genuine_infeasibility(self):
        result = solve(
            bottleneck_problem(3, period=Fraction(35, 10000)),
            SynthesisOptions(routes=2, stages=2, repair=True))
        assert not result.ok

    @pytest.mark.parametrize("backend", ["native", "serialization"])
    def test_backends_agree_on_the_trap(self, backend):
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2),
                       session=Session(backend=backend))
        assert result.status == "unsat"

    def test_max_repair_rounds_bounds_work(self, monkeypatch):
        monkeypatch.setattr(synthesizer, "MAX_REPAIR_ROUNDS", 0)
        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2, repair=True))
        # zero rounds = repair disabled in effect
        assert not result.ok
        assert result.statistics["stage_repairs"] == 0


class TestRefinePrecedence:
    """One stage check: a core that names a message which can still
    extend grows its route and releases nothing; only a core whose
    messages are all at their limit releases the freezes it blames."""

    def test_extension_comes_before_release(self, monkeypatch):
        events, guards = [], set()

        def record(owner, name, log):
            original = getattr(owner, name)

            def wrapper(self, *args):
                result = original(self, *args)
                log(args, result)
                return result
            monkeypatch.setattr(owner, name, wrapper)

        ledger = synthesizer._FreezeLedger
        record(ledger, "new_guard", lambda args, guard: guards.add(guard))
        record(Session, "check", lambda args, o: events.append(
            ("check", o.status.name, tuple(o.unsat_core or ()))))
        record(Encoder, "extend_route", lambda args, grew: events.append(
            ("extend", args[0], grew)))
        record(ledger, "release", lambda args, uids: events.append(
            ("release", tuple(uids))))

        result = solve(bottleneck_repair_problem(),
                       SynthesisOptions(routes=2, stages=2, repair=True))
        assert result.ok
        unsat = [i for i, e in enumerate(events) if e[:2] == ("check", "unsat")]
        assert len(unsat) == 2
        first, second = unsat

        # The core names a freeze guard and a message that can extend.
        core = events[first][2]
        assert any(lit in guards for lit in core)
        assert any(lit not in guards for lit in core)
        between = events[first + 1:second]
        assert [e[0] for e in between] == ["extend"] * len(between)
        assert any(grew for _, _, grew in between)

        # Now every message the core names is at its limit: the guards go.
        assert any(lit in guards for lit in events[second][2])
        after = [e[0] for e in events[second + 1:]]
        n_extend = after.index("release")
        assert after[:n_extend] == ["extend"] * n_extend
        assert not any(e[2] for e in events[second + 1:second + 1 + n_extend])
        assert after.count("release") == 1
        assert set(after[n_extend + 1:]) == {"check"}
        assert events[-1][:2] == ("check", "sat")
        assert result.statistics["route_extensions"] == 1
        assert result.statistics["stage_repairs"] == 1
        assert result.statistics["cores_extracted"] == 1
