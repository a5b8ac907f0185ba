"""Property-based end-to-end tests: every SAT synthesis validates and
simulates identically, across random topologies/workloads/heuristics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MODE_DEADLINE,
    MODE_STABILITY,
    ControlApplication,
    SynthesisOptions,
    SynthesisProblem,
    collect_violations,
    solve,
)
from repro.network import DelayModel, microseconds, random_network
from repro.sim import cross_check_e2e, simulate_solution
from repro.stability import StabilitySpec

FAST = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))


@st.composite
def synthesis_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=200))
    n_apps = draw(st.integers(min_value=1, max_value=3))
    n_switches = draw(st.integers(min_value=3, max_value=6))
    routes = draw(st.sampled_from([1, 2, 3]))
    stages = draw(st.sampled_from([1, 2, 3]))
    mode = draw(st.sampled_from([MODE_STABILITY, MODE_DEADLINE]))
    periods = draw(
        st.lists(st.sampled_from([5, 10, 20]), min_size=n_apps, max_size=n_apps)
    )
    return seed, n_apps, n_switches, routes, stages, mode, periods


@given(synthesis_cases())
@settings(max_examples=25, deadline=None)
def test_sat_solutions_always_validate_and_simulate(case):
    seed, n_apps, n_switches, routes, stages, mode, periods = case
    net = random_network(n_switches, n_apps, n_apps, p=0.5, seed=seed)
    spec = StabilitySpec.single_line("2.0", "0.004")
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", Fraction(periods[i], 1000),
            spec if mode == MODE_STABILITY else None,
        )
        for i in range(n_apps)
    ]
    problem = SynthesisProblem(net, apps, FAST)
    options = SynthesisOptions(mode=mode, routes=routes, stages=stages)
    result = solve(problem, options)
    if not result.ok:
        return  # UNSAT is legitimate (tight specs / few routes)
    solution = result.solution
    # 1. The independent validator accepts it.
    assert collect_violations(
        solution, check_stability=(mode == MODE_STABILITY)
    ) == []
    # 2. The discrete-event simulator replays it without violations and
    #    measures exactly the analytical delays.
    trace = simulate_solution(solution)
    cross_check_e2e(solution, trace)
    # 3. Stability mode implies non-negative margins everywhere.
    if mode == MODE_STABILITY:
        assert solution.all_stable()
