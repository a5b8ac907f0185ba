"""Tests for the discrete-event TSN simulator."""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core import (
    ControlApplication,
    SynthesisOptions,
    SynthesisProblem,
    Solution,
    solve,
)
from repro.errors import SimulationError
from repro.network import DelayModel, microseconds, ring_topology
from repro.sim import EventQueue, cross_check_e2e, simulate_solution
from repro.stability import StabilitySpec


def ms(x):
    return Fraction(x) / 1000


FAST = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))


@pytest.fixture(scope="module")
def solution():
    # Both sensors hang off SW0 and both shortest routes leave it toward
    # SW1: the collision tests below need two apps sharing an egress link.
    net = ring_topology(4)
    for i in range(2):
        net.add_link(net.add_sensor(f"S{i}"), "SW0")
        net.add_link(net.add_controller(f"C{i}"), f"SW{i + 1}")
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", ms(5),
            StabilitySpec.single_line("1.5", "0.004"),
        )
        for i in range(2)
    ]
    prob = SynthesisProblem(net, apps, FAST)
    res = solve(prob, SynthesisOptions(routes=1))
    assert res.ok
    return res.solution


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(Fraction(3), "c")
        q.push(Fraction(1), "a")
        q.push(Fraction(2), "b")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_within_same_time(self):
        q = EventQueue()
        q.push(Fraction(1), "first")
        q.push(Fraction(1), "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_priority_breaks_ties(self):
        q = EventQueue()
        q.push(Fraction(1), "low", priority=1)
        q.push(Fraction(1), "high", priority=0)
        assert q.pop().kind == "high"

    def test_no_time_travel(self):
        q = EventQueue()
        q.push(Fraction(2), "x")
        q.pop()
        with pytest.raises(SimulationError):
            q.push(Fraction(1), "past")

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()


class TestSimulateSolution:
    def test_all_frames_delivered(self, solution):
        trace = simulate_solution(solution)
        assert set(trace.arrivals) == set(solution.schedules)

    def test_measured_equals_analytical(self, solution):
        trace = simulate_solution(solution)
        cross_check_e2e(solution, trace)

    def test_latency_jitter_match_reports(self, solution):
        trace = simulate_solution(solution)
        for report in solution.reports():
            lat, jit = trace.app_latency_jitter(solution, report.name)
            assert lat == report.latency
            assert jit == report.jitter

    def test_transmissions_disjoint_per_link(self, solution):
        trace = simulate_solution(solution)
        by_link = {}
        for u, v, start, uid in trace.link_transmissions:
            by_link.setdefault((u, v), []).append(start)
        for starts in by_link.values():
            starts.sort()
            for a, b in zip(starts, starts[1:]):
                assert b - a >= FAST.ld

    def test_corrupted_gamma_raises(self, solution):
        uid, sched = next(iter(solution.schedules.items()))
        gammas = dict(sched.gammas)
        first_sw = sched.route[1]
        gammas[first_sw] = sched.release  # before the frame can be queued
        schedules = dict(solution.schedules)
        schedules[uid] = replace(sched, gammas=gammas)
        bad = Solution(solution.problem, schedules)
        with pytest.raises(SimulationError):
            simulate_solution(bad)

    def test_colliding_schedule_raises(self, solution):
        uids = sorted(solution.schedules)
        s0 = solution.schedules[uids[0]]
        s1 = solution.schedules[uids[1]]
        shared = set(s0.route[1:-1]) & set(s1.route[1:-1])
        if not shared:
            pytest.skip("routes do not share a switch")
        sw = sorted(shared)[0]
        # Only a real collision if they leave toward the same next hop.
        nxt0 = s0.route[s0.route.index(sw) + 1]
        nxt1 = s1.route[s1.route.index(sw) + 1]
        if nxt0 != nxt1:
            pytest.skip("shared switch but different egress links")
        gammas = dict(s1.gammas)
        gammas[sw] = s0.gammas[sw]
        schedules = dict(solution.schedules)
        schedules[uids[1]] = replace(s1, gammas=gammas)
        bad = Solution(solution.problem, schedules)
        with pytest.raises(SimulationError):
            simulate_solution(bad)
