"""Tests for solution export."""

import json
from fractions import Fraction

import pytest

from repro.core import (
    ControlApplication,
    SynthesisOptions,
    SynthesisProblem,
    collect_violations,
    render_switch_configs,
    solution_from_dict,
    solution_to_dict,
    solve,
    validate_solution,
)
from repro.errors import ValidationError
from repro.eval.workloads import bottleneck_problem
from repro.network import DelayModel, microseconds, simple_testbed
from repro.stability import StabilitySpec


def ms(x):
    return Fraction(x) / 1000


FAST = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))


def make_problem(n_apps=2, period_ms=5):
    net = simple_testbed(n_apps)
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", ms(period_ms),
            StabilitySpec.single_line("1.5", "0.004"),
        )
        for i in range(n_apps)
    ]
    return SynthesisProblem(net, apps, FAST)


PINNED_EXPORT = (
    '{"mode": "stability", "synthesis_time": 0.0, "hyperperiod": "9/2000", '
    '"messages": {"app0#0": {"app": "app0", "route": ["S0", "A", "B", "C0"], '
    '"release": "0", "e2e": "401/100000", "gammas": {"A": "401/200000", '
    '"B": "301/100000"}}, "app1#0": {"app": "app1", "route": '
    '["S1", "A", "B", "C1"], "release": "0", "e2e": "301/100000", '
    '"gammas": {"A": "201/200000", "B": "201/100000"}}}}'
)


class TestExport:
    @pytest.fixture(scope="class")
    def solution(self):
        res = solve(make_problem(2), SynthesisOptions(routes=2))
        return res.solution

    def test_json_round_trip(self, solution):
        data = solution_to_dict(solution)
        text = json.dumps(data)          # must be JSON-serializable
        rebuilt = solution_from_dict(solution.problem, json.loads(text))
        assert set(rebuilt.schedules) == set(solution.schedules)
        for uid in solution.schedules:
            a, b = solution.schedules[uid], rebuilt.schedules[uid]
            assert a.route == b.route
            assert a.gammas == b.gammas
            assert a.e2e == b.e2e
        assert collect_violations(rebuilt) == []

    def test_exported_bytes_are_pinned(self):
        """The on-disk schedule format, recorded at b2a3628: key order,
        route-ordered gammas and exact-rational strings are what stored
        schedules are diffed by."""
        result = solve(bottleneck_problem(2), SynthesisOptions(routes=2))
        data = solution_to_dict(result.solution)
        data["synthesis_time"] = 0.0     # the one wall-clock field
        assert json.dumps(data) == PINNED_EXPORT
        rebuilt = solution_from_dict(result.solution.problem,
                                     json.loads(PINNED_EXPORT))
        validate_solution(rebuilt)

    def test_malformed_dict_rejected(self, solution):
        with pytest.raises(ValidationError):
            solution_from_dict(solution.problem, {"messages": {"x": {}}})

    def test_render_switch_configs(self, solution):
        text = render_switch_configs(solution)
        assert "802.1Qbv configuration" in text
        assert "gate control list" in text
        # Every switch that forwards traffic appears.
        for switch in solution.eta_tables():
            assert f"switch {switch}:" in text
