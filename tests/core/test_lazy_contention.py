"""Lazy contention: Eq. 5 is asserted only for the pairs a model overlaps.

``Encoder.add_contention_constraints`` adds the pair clause of every
overlap the model shows, and :func:`~repro.core.synthesizer.refine`
re-checks until no pair overlaps.  The added clauses are a subset of the eager formula's
(every pair of usages of every link, over every candidate route), so the
verdict must be the eager one, and every ``sat`` must certify.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import (Encoder, SynthesisOptions, collect_violations,
                        solve)
from repro.errors import EncodingError
from repro.eval.workloads import (BOTTLENECK_DELAYS, bottleneck_problem,
                                  detour_problem, random_problem,
                                  sharing_unsat_problem)

CASES = {
    "sharing_unsat_problem": (sharing_unsat_problem, None, "unsat"),
    "bottleneck_problem routes=1": (bottleneck_problem, 1, "unsat"),
    "bottleneck_problem routes=None": (bottleneck_problem, None, "sat"),
    "detour_problem routes=1": (detour_problem, 1, "unsat"),
    "detour_problem routes=None": (detour_problem, None, "sat"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdicts_of_the_funnel_instances_hold(case):
    make, routes, verdict = CASES[case]
    result = solve(make(), SynthesisOptions(routes=routes))
    assert result.status == verdict
    # Every one of them needs at least one overlap refuted.
    assert result.statistics["contention_pairs"] > 0
    assert result.statistics["contention_rounds"] > 0
    if verdict == "sat":
        assert collect_violations(result.solution) == []


def within(encoder):
    """Every open message's assumption "no route beyond the encoded
    ones"."""
    return [plan.within for plan in encoder.plans.values()
            if plan.within is not None]


def eager_verdict(problem, routes):
    """The reference: every route up to the limit and every pair clause
    of every link asserted up front (the paper's Eq. 5 as written), then
    one check under every message's ``within``."""
    session = Session()
    encoder = Encoder(problem, session, routes)
    for message in problem.messages:
        encoder.encode_message(message)
        encoder.reach_route(message.uid, routes)
    for app in problem.apps:
        encoder.add_stability_constraints(app)
    for link, usages in encoder.link_usage.items():
        for j in range(len(usages)):
            for i in range(j):
                if usages[i][0] != usages[j][0]:
                    session.add(encoder.contention_clause(link, i, j))
    return session.check(within(encoder)).status.name


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_apps=st.integers(min_value=2, max_value=4),
       routes=st.sampled_from([1, 2]))
def test_lazy_verdict_equals_the_eager_one(seed, n_apps, routes):
    # Slow links and short periods: about two in five of these
    # instances are unsat.
    problem = random_problem(
        seed, n_apps=n_apps, n_switches=5, delays=BOTTLENECK_DELAYS,
        periods=(Fraction(4, 1000), Fraction(8, 1000)))
    result = solve(problem, SynthesisOptions(routes=routes))
    assert result.status == eager_verdict(problem, routes)
    if result.status == "sat":
        assert collect_violations(result.solution) == []


def test_a_model_violating_an_asserted_pair_is_a_solver_bug():
    session = Session()
    encoder = Encoder(bottleneck_problem(3), session, route_limit=1)
    for message in encoder.problem.messages:
        encoder.encode_message(message)
    outcome = session.check(within(encoder))
    assert outcome == "sat"
    model = outcome.require_model()
    # Every message leaves the funnel at its earliest time: overlaps.
    assert encoder.add_contention_constraints(model) > 0
    with pytest.raises(EncodingError, match="already asserted"):
        encoder.add_contention_constraints(model)
