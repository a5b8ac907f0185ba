"""The incremental synthesis engine: one solver per run, frozen stages.

Covers the acceptance contract of the persistent-solver rewrite: a run
with any number of stages constructs exactly one SMT solver, freezes
earlier stages via asserted equalities (so later stages must respect
them), and on the automotive workload matches the monolithic status
while staying validator-clean.
"""

from fractions import Fraction

import pytest

import repro.core.synthesizer as synthesizer_mod
from repro.api import Session
from repro.core import (
    ControlApplication,
    SynthesisOptions,
    SynthesisProblem,
    collect_violations,
    solve,
)
from repro.core.synthesizer import WORK_COUNTERS
from repro.eval.workloads import bottleneck_repair_problem, gm_case_study
from repro.network import DelayModel, microseconds, simple_testbed
from repro.smt import SolverEngine
from repro.stability import StabilitySpec

FAST = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))


def ms(x):
    return Fraction(x) / 1000


def make_problem(n_apps=2, period_ms=5):
    net = simple_testbed(n_apps)
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", ms(period_ms),
            StabilitySpec.single_line("1.5", str(float(ms(4)))),
        )
        for i in range(n_apps)
    ]
    return SynthesisProblem(net, apps, FAST)


class CountingSolver(SolverEngine):
    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def count_solvers(monkeypatch):
    CountingSolver.instances = 0
    monkeypatch.setattr(synthesizer_mod, "SolverEngine", CountingSolver)
    return CountingSolver


class TestOneSolverPerRun:
    @pytest.mark.parametrize("stages", [1, 2, 4])
    def test_exactly_one_solver(self, count_solvers, stages):
        res = solve(make_problem(), SynthesisOptions(routes=2, stages=stages))
        assert res.ok
        assert count_solvers.instances == 1

    def test_one_solver_even_when_unsat(self, count_solvers):
        # beta below the minimum achievable latency -> unsat in stage 0.
        net = simple_testbed(1)
        apps = [
            ControlApplication(
                "a0", "S0", "C0", ms(10),
                StabilitySpec.single_line("1", str(float(FAST.ld))),
            )
        ]
        problem = SynthesisProblem(net, apps, FAST)
        res = solve(problem, SynthesisOptions(routes=1, stages=2))
        assert not res.ok
        assert count_solvers.instances == 1


class TestStageAccounting:
    def test_run_counters_sum_every_check(self, monkeypatch):
        """The run's search counters are the sums over every
        ``Session.check`` it made, across its stages and every kind of
        re-check (contention, route extension, repair)."""
        outcomes = []
        check = Session.check

        def counting_check(self, *assumptions):
            outcome = check(self, *assumptions)
            outcomes.append(outcome)
            return outcome

        monkeypatch.setattr(Session, "check", counting_check)
        res = solve(bottleneck_repair_problem(),
                    SynthesisOptions(routes=2, stages=2, repair=True))
        assert res.ok
        for key in ("contention_rounds", "route_extensions", "stage_repairs"):
            assert res.statistics[key] >= 1
        for key in WORK_COUNTERS:
            assert res.statistics[key] == sum(
                o.statistics.get(key, 0) for o in outcomes
            )
        assert res.statistics["decisions"] > 0

    def test_frozen_stages_respected(self):
        """Later stages schedule around stage-0 messages: the combined
        schedule has no contention violations anywhere."""
        res = solve(make_problem(2, period_ms=5),
                         SynthesisOptions(routes=2, stages=4))
        assert res.ok
        assert collect_violations(res.solution) == []


class TestAutomotiveEquivalence:
    """Stages >= 2 match the monolithic status on the automotive workload
    and produce validator-clean schedules (the seed implementation's
    behavior, now with a single persistent solver)."""

    @pytest.fixture(scope="class")
    def automotive(self):
        return gm_case_study(n_apps=4)

    @pytest.fixture(scope="class")
    def monolithic_status(self, automotive):
        return solve(automotive, SynthesisOptions(routes=2, stages=1)).status

    @pytest.mark.parametrize("stages", [2, 4])
    def test_status_matches_monolithic(self, automotive, monolithic_status,
                                       stages):
        res = solve(automotive, SynthesisOptions(routes=2, stages=stages))
        assert res.status == monolithic_status == "sat"
        assert collect_violations(res.solution) == []
        assert res.stages_completed == stages
        assert set(res.solution.schedules) == {
            m.uid for m in automotive.messages
        }
