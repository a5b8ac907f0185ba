"""Frozen messages enter the stability rows (Eqs. 9 + 10) as constants.

``Encoder.add_stability_constraints`` gives per-route ``sel -> ...`` rows
only to open messages.  The messages ``freeze_message`` pinned for good
fold into ``Lmin <= min``, ``Lmax >= max`` and one attainment disjunct
``Lmin >= min``.  Synthesis also drops ``Lmax``'s attainment: every
alpha is >= 0, so a model can always lower ``Lmax`` to the exact max.

The reference below is the encoding before the fold.  Every freeze sits
under a guard that every check assumes, so a frozen message keeps its
variable form, and the stability body is the old one, which attains
``Lmax`` too.  Both encodings answer each stage over the *same* frozen
prefix: a staged run's verdict depends on which model each stage
returns, and the fold's claim is that each stage is equisatisfiable, not
that two searches pick the same models.

The exhaustive tests force one app's e2e values stage by stage and
compare every verdict, in both polarities, with Eq. (2) evaluated on
those exact values.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import (ControlApplication, Encoder, SynthesisOptions,
                        SynthesisProblem, collect_violations, solve)
from repro.core.solution import Solution
from repro.core.synthesizer import _slice_messages, refine
from repro.eval.workloads import (BOTTLENECK_DELAYS, bottleneck_network,
                                  bottleneck_repair_problem, random_problem)
from repro.smt import And, Bool, Implies, Or, Real
from repro.stability import StabilitySpec

from .test_encoding_identity import gm_variant


def reference_stability(encoder, app, tag):
    """The stability body before the fold: per-route rows for every
    message, frozen or not, and both ends attained."""
    lmin = Real(f"ref/Lmin[{app.name}]@{tag}")
    lmax = Real(f"ref/Lmax[{app.name}]@{tag}")
    attain_min, attain_max = [], []
    for plan in encoder.plans.values():
        if plan.message.flow.name != app.name:
            continue
        for sel, e2e in zip(plan.selectors, plan.e2e_by_route):
            encoder.solver.add(Implies(sel, lmin <= e2e))
            encoder.solver.add(Implies(sel, lmax >= e2e))
            attain_min.append(And(sel, lmin >= e2e))
            attain_max.append(And(sel, lmax <= e2e))
    encoder.solver.add(Or(attain_min))
    encoder.solver.add(Or(attain_max))
    encoder.solver.add(Or([
        And(lmin >= seg.l_lo, lmin <= seg.l_hi,
            lmin + seg.alpha * (lmax - lmin) <= seg.beta)
        for seg in app.stability.segments]))


def lockstep(problem, routes, stages):
    """Run the folded and the reference encoding stage by stage.

    Both encoders share one namespace, so they name the same selector
    and release-time terms, and each stage's folded model is frozen into
    both.  Every new message gets all its ``routes`` up front (the
    reference's rows cover only the routes encoded when they are added),
    so :func:`refine` never extends.  Returns the folded run's
    verdict and, when ``sat``, its solution.
    """
    folded = Encoder(problem, Session(), routes, namespace="fold")
    reference = Encoder(problem, Session(), routes, namespace="fold")
    always = Bool("fold/always")
    slices = _slice_messages(problem, stages)
    schedules = {}
    for stage, messages in enumerate(slices):
        if not messages:
            continue
        plans = [(folded.encode_message(m), reference.encode_message(m))
                 for m in messages]
        for m in messages:
            folded.reach_route(m.uid, routes)
            reference.reach_route(m.uid, routes)
        for name in sorted({m.flow.name for m in messages}):
            app = problem.app_by_name[name]
            folded.add_stability_constraints(app, tag=f"s{stage}")
            reference_stability(reference, app, f"s{stage}")
        # Every new message on its shortest route first (where the
        # driver's route loop starts), then the stage itself.
        shortest = [plan.selectors[0] for plan, _ in plans]
        for assumptions in (shortest, []):
            outcome = refine(folded.solver, folded, assumptions)
            want = refine(reference.solver, reference,
                                [always] + assumptions)
            assert outcome.status == want.status, f"stage {stage}"
            if outcome == "sat":
                break
        if outcome != "sat":
            return outcome.status.name, None
        model = outcome.require_model()
        pin = any(slices[stage + 1:])
        for plan, twin in plans:
            schedules[plan.message.uid] = folded.freeze_message(
                plan, model, pin=pin)
            reference.freeze_message(twin, model, pin=pin, guard=always)
    return "sat", Solution(problem, schedules)


def assert_agrees(problem, routes, stages):
    """The lock-step run agrees stage by stage and certifies, and so does
    the synthesis driver's own staged run."""
    status, solution = lockstep(problem, routes, stages)
    if status == "sat":
        assert collect_violations(solution) == []
    result = solve(problem, SynthesisOptions(routes=routes, stages=stages))
    if result.status == "sat":
        assert collect_violations(result.solution) == []


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       routes=st.sampled_from([2, 3]),
       stages=st.integers(min_value=2, max_value=5))
def test_gm_variant_stages_agree_with_the_unfolded_encoding(seed, routes,
                                                            stages):
    assert_agrees(gm_variant(seed), routes, stages)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_apps=st.integers(min_value=2, max_value=5),
       routes=st.sampled_from([1, 2, 3]),
       stages=st.integers(min_value=2, max_value=5))
def test_random_problem_stages_agree_with_the_unfolded_encoding(
        seed, n_apps, routes, stages):
    # Slow links and short periods: about half of these are unsat.
    problem = random_problem(
        seed, n_apps=n_apps, n_switches=5, delays=BOTTLENECK_DELAYS,
        periods=(Fraction(4, 1000), Fraction(8, 1000), Fraction(16, 1000)))
    assert_agrees(problem, routes, stages)


#: e2e values the funnel's direct route can take, in [3.01, 4.5] ms.
E2E = (Fraction(3010, 1_000_000), Fraction(3510, 1_000_000),
       Fraction(4010, 1_000_000))
#: (alpha, beta): alpha below and above 1, beta tight and loose.
SPECS = [(alpha, Fraction(beta_us, 1_000_000))
         for alpha in ("0.5", "1.5") for beta_us in (4000, 4500)]


def three_stage_problem(alpha, beta):
    """App ``x`` sends three times per 13.5 ms hyper-period, once in each
    of three stages, alone on its funnel; app ``y``, on an island of its
    own, only sets the hyper-period."""
    period = Fraction(45, 10000)
    apps = [
        ControlApplication("x", "S0", "C0", period,
                           StabilitySpec.single_line(alpha, beta)),
        ControlApplication("y", "I0.S", "I0.C", 3 * period,
                           StabilitySpec.single_line(1, 3 * period)),
    ]
    return SynthesisProblem(bottleneck_network(1, islands=1), apps,
                            BOTTLENECK_DELAYS)


def stable(spec, e2es):
    """Eq. (2) on exact values: the independent oracle."""
    latency, jitter = min(e2es), max(e2es) - min(e2es)
    return any(seg.l_lo <= latency <= seg.l_hi
               and seg.margin(latency, jitter) >= 0
               for seg in spec.segments)


def force(encoder, plan, literal, low=None, high=None):
    """``literal -> low <= e2e <= high`` on every route of ``plan``."""
    for sel, e2e in zip(plan.selectors, plan.e2e_by_route):
        if low is not None:
            encoder.solver.add(Implies(literal, Implies(sel, e2e >= low)))
        if high is not None:
            encoder.solver.add(Implies(literal, Implies(sel, e2e <= high)))


def staged_verdicts(alpha, beta, forced):
    """Per stage, is x stable with its e2e forced to ``forced[stage]``?
    Earlier stages are frozen, so they reach the later rows only as
    folded constants.  Stops after the first unsat stage."""
    problem = three_stage_problem(alpha, beta)
    encoder = Encoder(problem, Session(), route_limit=1)
    verdicts = []
    for stage, messages in enumerate(_slice_messages(problem, 3)):
        plans = [encoder.encode_message(m) for m in messages]
        for name in sorted({m.flow.name for m in messages}):
            encoder.add_stability_constraints(problem.app_by_name[name],
                                              tag=f"s{stage}")
        (x,) = [plan for plan in plans if plan.message.flow.name == "x"]
        pin = Bool(f"fold/force{stage}")
        force(encoder, x, pin, low=forced[stage], high=forced[stage])
        outcome = refine(encoder.solver, encoder, [pin])
        verdicts.append(outcome == "sat")
        if outcome != "sat":
            break
        model = outcome.require_model()
        for plan in plans:
            encoder.freeze_message(plan, model, pin=stage < 2)
    return verdicts


@pytest.mark.parametrize("alpha, beta", SPECS)
def test_each_stage_is_sat_exactly_when_eq2_holds_on_the_e2es(alpha, beta):
    spec = StabilitySpec.single_line(alpha, beta)
    for forced in itertools.product(E2E, repeat=3):
        verdicts = staged_verdicts(alpha, beta, forced)
        assert verdicts == [stable(spec, forced[:stage + 1])
                            for stage in range(len(verdicts))], forced


@pytest.mark.parametrize("alpha, beta", SPECS)
def test_the_negated_check_is_sat_exactly_when_eq2_fails(alpha, beta):
    # Table I's polarity keeps both ends exact: a loose Lmax would make
    # a stable schedule look unstable.
    problem = three_stage_problem(alpha, beta)
    app = problem.app_by_name["x"]
    encoder = Encoder(problem, Session(), route_limit=1)
    for message in problem.messages:
        encoder.encode_message(message)
    unstable = Bool("fold/unstable")
    encoder.add_stability_constraints(app, unstable=unstable)
    xs = sorted((plan for plan in encoder.plans.values()
                 if plan.message.flow.name == "x"),
                key=lambda plan: plan.message.release)
    for i, forced in enumerate(itertools.product(E2E, repeat=3)):
        pin = Bool(f"fold/force{i}")
        for plan, value in zip(xs, forced):
            force(encoder, plan, pin, low=value, high=value)
        outcome = refine(encoder.solver, encoder, [unstable, pin])
        assert (outcome == "sat") == (not stable(app.stability, forced)), (
            forced)


def test_the_staged_trap_fails_in_its_second_stage_under_both_encodings():
    # Stage 0's frozen crowd blocks stage 1 (the repair workload), so
    # the folded constants decide an unsat stage here.
    assert lockstep(bottleneck_repair_problem(), 2, 2) == ("unsat", None)


def two_stage_problem():
    """App ``x`` sends twice per 9 ms hyper-period, once in each of two
    stages; its e2e lies in [3.01, 4.5] ms on the direct route and Eq. (2)
    reads ``L + 1.5 J <= 4.5 ms``."""
    period = Fraction(45, 10000)
    apps = [
        ControlApplication("x", "S0", "C0", period,
                           StabilitySpec.single_line("1.5", "0.0045")),
        ControlApplication("y", "S1", "C1", 2 * period,
                           StabilitySpec.single_line("1.5", "0.009")),
    ]
    return SynthesisProblem(bottleneck_network(2), apps, BOTTLENECK_DELAYS)


def test_a_released_guard_reopens_the_message_in_the_next_stage_rows():
    problem = two_stage_problem()
    session = Session()
    encoder = Encoder(problem, session, route_limit=1)
    first, second = _slice_messages(problem, 2)
    early = [encoder.encode_message(m) for m in first]
    encoder.add_stability_constraints(problem.app_by_name["x"], tag="s0")
    encoder.add_stability_constraints(problem.app_by_name["y"], tag="s0")
    model = refine(session, encoder).require_model()
    guard = Bool("fold/guard")
    frozen = {}
    for plan in early:
        frozen[plan.message.flow.name] = encoder.freeze_message(
            plan, model, guard=guard)
    assert frozen["x"].e2e < Fraction(44, 10000)

    (late,) = [encoder.encode_message(m) for m in second]
    encoder.add_stability_constraints(problem.app_by_name["x"], tag="s1")
    x0 = encoder.plans[frozen["x"].uid]
    hi, lo = Bool("fold/hi"), Bool("fold/lo")
    force(encoder, x0, hi, low=Fraction(44, 10000))
    force(encoder, late, lo, high=Fraction(31, 10000))

    # Pinned, x's first message cannot leave its frozen e2e.
    assert refine(session, encoder, [guard, hi]) == "unsat"
    # Released, it can, and stage 1's Lmin/Lmax follow it: with the
    # second message near the floor the jitter breaks Eq. (2) ...
    assert refine(session, encoder, [hi, lo]) == "unsat"
    # ... and without that squeeze the reopened schedule is stable.
    outcome = refine(session, encoder, [hi])
    assert outcome == "sat"
    model = outcome.require_model()
    schedules = {plan.message.uid: encoder.freeze_message(plan, model,
                                                          pin=False)
                 for plan in encoder.plans.values()}
    assert schedules[x0.message.uid].e2e >= Fraction(44, 10000)
    assert collect_violations(Solution(problem, schedules)) == []
    # The squeeze alone is satisfiable: the unsat above is Eq. (2)'s.
    assert refine(session, encoder, [guard, lo]) == "sat"
    assert refine(session, encoder, [lo]) == "sat"
