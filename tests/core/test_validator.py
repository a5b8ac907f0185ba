"""Failure-injection tests: the validator must reject corrupted solutions."""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core import (
    ControlApplication,
    SynthesisOptions,
    SynthesisProblem,
    Solution,
    collect_violations,
    solve,
    validate_solution,
)
from repro.errors import ValidationError
from repro.network import DelayModel, microseconds, simple_testbed
from repro.stability import StabilitySpec


def ms(x):
    return Fraction(x) / 1000


FAST = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))


@pytest.fixture(scope="module")
def good_solution():
    net = simple_testbed(2)
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", ms(5),
            StabilitySpec.single_line("1.5", "0.004"),
        )
        for i in range(2)
    ]
    prob = SynthesisProblem(net, apps, FAST)
    res = solve(prob, SynthesisOptions(routes=2))
    assert res.ok
    return res.solution


def mutate(solution, uid, **changes):
    schedules = dict(solution.schedules)
    schedules[uid] = replace(schedules[uid], **changes)
    return Solution(solution.problem, schedules, mode=solution.mode)


class TestValidatorAcceptsGood:
    def test_clean(self, good_solution):
        assert collect_violations(good_solution) == []
        validate_solution(good_solution)


class TestFailureInjection:
    def test_missing_message(self, good_solution):
        schedules = dict(good_solution.schedules)
        uid = next(iter(schedules))
        del schedules[uid]
        bad = Solution(good_solution.problem, schedules)
        assert any("not scheduled" in v for v in collect_violations(bad))

    def test_transposition_violation(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        first_switch = sched.route[1]
        gammas = dict(sched.gammas)
        gammas[first_switch] = sched.release  # too early: misses sd + ld
        bad = mutate(good_solution, uid, gammas=gammas)
        assert any("transposition" in v for v in collect_violations(bad))

    def test_route_endpoint_violation(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        bad = mutate(good_solution, uid, route=["S1"] + sched.route[1:])
        violations = collect_violations(bad)
        assert any("start at sensor" in v for v in violations)

    def test_nonexistent_link(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        route = [sched.route[0], "SW0", "SW2", sched.route[-1]]
        gammas = {"SW0": sched.release + ms(1), "SW2": sched.release + ms(2)}
        bad = mutate(good_solution, uid, route=route, gammas=gammas)
        violations = collect_violations(bad)
        # SW0-SW2 is a ring chord that does not exist in the 4-ring.
        assert any("missing link" in v or "does not" in v for v in violations)

    def test_loop_detected(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        looped = sched.route[:-1] + [sched.route[1], sched.route[-1]]
        bad = mutate(good_solution, uid, route=looped)
        assert any("twice" in v for v in collect_violations(bad))

    def test_deadline_violation(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        last_sw = sched.route[-2]
        gammas = dict(sched.gammas)
        gammas[last_sw] = sched.release + ms(100)  # way past the period
        bad = mutate(
            good_solution, uid, gammas=gammas,
            e2e=gammas[last_sw] + FAST.ld - sched.release,
        )
        assert any("exceeds period" in v for v in collect_violations(bad))

    def test_contention_violation(self):
        """Force two messages onto one link at the same instant."""
        net = simple_testbed(2)
        apps = [
            ControlApplication(
                f"app{i}", f"S{i}", f"C{i}", ms(5),
                StabilitySpec.single_line("1.5", "0.004"),
            )
            for i in range(2)
        ]
        prob = SynthesisProblem(net, apps, FAST)
        res = solve(prob, SynthesisOptions(routes=2))
        sol = res.solution
        # Find two messages and rewrite them onto the same route/time.
        uids = sorted(sol.schedules)
        s0, s1 = sol.schedules[uids[0]], sol.schedules[uids[1]]
        # Rebuild s1 to collide with s0 on s0's first switch link if the
        # two apps share switches; otherwise skip (ring guarantees shared
        # middle links for opposite pairs).
        shared = set(s0.route[1:-1]) & set(s1.route[1:-1])
        if not shared:
            pytest.skip("no shared switch between the two routes")
        sw = sorted(shared)[0]
        gammas = dict(s1.gammas)
        gammas[sw] = s0.gammas[sw]  # identical release on a shared egress
        schedules = dict(sol.schedules)
        schedules[uids[1]] = replace(s1, gammas=gammas)
        bad = Solution(sol.problem, schedules)
        violations = collect_violations(bad)
        # Either the same egress link overlaps, or at least the derived
        # e2e mismatch triggers.
        assert violations

    def test_release_off_the_sampling_instant(self, good_solution):
        # Shifting a whole message keeps its own Eq. 6 chain and e2e
        # consistent; only the release itself is wrong.
        uid, sched = next(iter(good_solution.schedules.items()))
        shift = ms(1)
        bad = mutate(good_solution, uid, release=sched.release + shift,
                     gammas={n: g + shift for n, g in sched.gammas.items()})
        assert any("sampling instant" in v for v in collect_violations(bad))

    def test_schedule_of_another_app(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        other = next(a.name for a in good_solution.problem.apps
                     if a.name != sched.app)
        bad = mutate(good_solution, uid, app=other)
        assert any("of app" in v for v in collect_violations(bad))
        bad = mutate(good_solution, uid, app="ghost")
        assert any("of app" in v for v in collect_violations(bad))

    @pytest.mark.parametrize("route", [[], ["S0"], ["S0", "C0"]])
    def test_route_without_a_switch_is_reported(self, good_solution, route):
        uid = next(iter(good_solution.schedules))
        bad = mutate(good_solution, uid, route=route)
        assert any("passes no switch" in v for v in collect_violations(bad))

    def test_unknown_node_is_reported(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        route = [sched.route[0], "nowhere", sched.route[-1]]
        bad = mutate(good_solution, uid, route=route,
                     gammas={"nowhere": sched.gammas[sched.route[-2]]})
        violations = collect_violations(bad)
        assert any("'nowhere' is not a switch" in v for v in violations)

    def test_stability_violation_detected(self, good_solution):
        uid, sched = next(iter(good_solution.schedules.items()))
        # Blow up this app's jitter by delaying one message to its period.
        app = good_solution.problem.app_by_name[sched.app]
        last_sw = sched.route[-2]
        gammas = dict(sched.gammas)
        gammas[last_sw] = sched.release + app.period - FAST.ld
        bad = mutate(
            good_solution, uid, gammas=gammas,
            e2e=app.period,
        )
        violations = collect_violations(bad, check_stability=True)
        assert any("stability margin" in v or "transposition" in v
                   for v in violations)

    def test_validate_raises(self, good_solution):
        schedules = dict(good_solution.schedules)
        uid = next(iter(schedules))
        del schedules[uid]
        bad = Solution(good_solution.problem, schedules)
        with pytest.raises(ValidationError):
            validate_solution(bad)
