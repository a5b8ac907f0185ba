"""Tests for the workload generators."""

from fractions import Fraction

import pytest

from repro.core import SynthesisOptions, solve, validate_solution
from repro.eval import workloads
from repro.eval import (
    TABLE1_ROWS,
    experiment_network,
    fixed_message_count_periods,
    gm_case_study,
    problem_with_message_count,
    random_problem,
    stability_spec_for,
)


class TestSpecCache:
    def test_spec_for_period_plant(self):
        spec = stability_spec_for("inverted_pendulum", Fraction(20, 1000))
        assert spec.segments
        assert spec.max_latency > 0

    def test_cache_returns_same_object(self):
        a = stability_spec_for("ball_and_beam", Fraction(40, 1000))
        b = stability_spec_for("ball_and_beam", Fraction(40, 1000))
        assert a is b


class TestRandomProblems:
    def test_network_shape(self):
        net = experiment_network(seed=0)
        assert len(net.switches) == 15
        assert len(net.sensors) == 10
        assert len(net.controllers) == 10
        assert net.num_nodes == 35  # the paper's 35-node network

    def test_problem_reproducible(self):
        p1 = random_problem(seed=5, n_apps=4)
        p2 = random_problem(seed=5, n_apps=4)
        assert [a.period for a in p1.apps] == [a.period for a in p2.apps]

    def test_message_count_in_paper_range(self):
        # 10 apps with {20,40,50} ms periods: 40..100 messages (Fig. 4 x-axis).
        for seed in range(3):
            prob = random_problem(seed=seed, n_apps=10)
            assert 40 <= prob.num_messages <= 100

    def test_every_app_has_spec(self):
        prob = random_problem(seed=1, n_apps=4)
        assert all(a.stability is not None for a in prob.apps)


class TestFixedMessageCount:
    def test_known_mix(self):
        periods = fixed_message_count_periods(10, 45)
        assert len(periods) == 10
        total = sum(int(Fraction(200, 1000) / p) for p in periods)
        assert total == 45

    def test_impossible_count_raises(self):
        with pytest.raises(ValueError):
            fixed_message_count_periods(1, 3)

    def test_problem_with_message_count(self):
        prob = problem_with_message_count(seed=3, n_messages=24, n_apps=5,
                                          n_switches=8)
        assert prob.num_messages == 24


class TestGmCaseStudy:
    def test_full_scale_matches_paper(self):
        prob = gm_case_study(n_apps=20)
        assert len(prob.apps) == 20
        assert prob.num_messages == 106          # paper Sec. VI
        assert prob.hyperperiod == Fraction(200, 1000)
        assert float(prob.delays.ld) == pytest.approx(0.0012)  # 1.2 ms

    def test_first_rows_match_table1(self):
        prob = gm_case_study(n_apps=20)
        for app, (period_ms, alpha, beta_ms) in zip(prob.apps, TABLE1_ROWS):
            assert app.period == Fraction(period_ms, 1000)
            seg = app.stability.segments[0]
            assert float(seg.alpha) == pytest.approx(float(alpha))
            assert float(seg.beta) == pytest.approx(float(beta_ms) / 1000)

    def test_scaled_down_variant(self):
        prob = gm_case_study(n_apps=6)
        assert len(prob.apps) == 6
        assert prob.num_messages < 106

    def test_small_case_synthesizes(self):
        prob = gm_case_study(n_apps=4)
        res = solve(prob, SynthesisOptions(routes=3, stages=2))
        assert res.ok
        validate_solution(res.solution)


class TestDifferenceChainWorkloads:
    def test_chain_network_shape(self):
        net = workloads.chain_network(3, 5)
        assert len(net.sensors) == 3 and len(net.controllers) == 3
        assert sorted(net.switches) == [f"A{k}" for k in range(5)]

    def test_chain_problem_single_route(self):
        from repro.network.paths import all_simple_paths

        problem = workloads.chain_problem()
        # The line topology admits exactly one route per application.
        for app in problem.apps:
            routes = all_simple_paths(problem.network, app.sensor,
                                      app.controller)
            assert len(list(routes)) == 1

    def test_chain_problem_statuses(self):
        from fractions import Fraction

        from repro.core.synthesizer import SynthesisOptions, solve

        assert solve(workloads.chain_problem(),
                     SynthesisOptions()).status == "sat"
        assert solve(workloads.chain_problem(period=Fraction(9, 1000)),
                     SynthesisOptions()).status == "unsat"
