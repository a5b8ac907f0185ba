"""Lazy routes: complete mode (``routes=None``) encodes each message's
shortest route and extends only where an unsat core asks.

The reference is the eager complete formula.  Every route list is a
prefix of the all-routes order, so that formula is ``routes=K`` with K
the largest number of simple routes any app has.  Both must give the
same verdict on every problem, staged or not, with or without repair,
and every ``sat`` must certify.  The knowledge tests pin the two
boundaries where a beyond literal could leak into another run: seeded
imports (padded with it) and exports (never holding it).
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.api import Session
from repro.core import Encoder, SynthesisOptions, collect_violations, solve
from repro.core.synthesizer import (MODE_DEADLINE, MODE_STABILITY,
                                    check_routed, open_session)
from repro.eval import workloads as W
from repro.eval.experiments import unstable_verdicts
from repro.network.paths import route_candidates
from repro.runtime.knowledge import export_knowledge
from repro.service.cache import KnowledgeCache
from repro.smt import Bool
from repro.smt.terms import AndExpr, Atom, BoolVar, NotExpr, OrExpr


def all_routes(problem) -> int:
    """The route limit under which ``routes=K`` is the eager complete
    formula."""
    return max(len(route_candidates(problem.network, app.sensor,
                                    app.controller, None))
               for app in problem.apps)


def certified(result) -> bool:
    return not result.ok or collect_violations(
        result.solution,
        check_stability=result.solution.mode == MODE_STABILITY) == []


# The funnel's relief path costs 4.015 ms end to end: periods around it
# put the bottleneck instances on both sides of the sat/unsat line.
BOTTLENECK_PERIODS = ("3.0", "3.5", "4.0", "4.015", "4.5", "6.0")

CASES = {
    f"bottleneck_problem({n}, islands={islands}, period={ms}ms)":
        (lambda n=n, islands=islands, ms=ms: W.bottleneck_problem(
            n, period=Fraction(ms) / 1000, islands=islands))
    for n in (3, 4, 5) for islands in range(4)
    for ms in BOTTLENECK_PERIODS
}
CASES.update({
    "detour_problem": W.detour_problem,
    "sharing_problem": W.sharing_problem,
    "sharing_unsat_problem": W.sharing_unsat_problem,
    "bottleneck_repair_problem": W.bottleneck_repair_problem,
    **{f"gm_case_study({n})": (lambda n=n: W.gm_case_study(n))
       for n in (3, 4, 5)},
})


@pytest.mark.parametrize("case", sorted(CASES))
def test_lazy_verdict_equals_the_eager_complete_formula(case):
    problem = CASES[case]()
    eager = all_routes(problem)
    for stages in (1, 3):
        for repair in (False, True):
            lazy = solve(problem, SynthesisOptions(stages=stages,
                                                   repair=repair))
            want = solve(problem, SynthesisOptions(routes=eager, stages=stages,
                                                   repair=repair))
            assert lazy.status == want.status, (stages, repair)
            assert certified(lazy) and certified(want)


def test_slow_funnel_stays_unsat():
    # The pigeonhole funnel is unsat by construction; its eager run takes
    # as long as this one (about 10 s), so only the lazy run is made.
    result = solve(W.slow_funnel_problem(), SynthesisOptions())
    assert result.status == "unsat"
    assert result.statistics["route_extensions"] > 0


def test_unstable_verdicts_equal_the_eager_ones():
    problem = W.gm_case_study(6)
    lazy, witnesses = unstable_verdicts(problem, None)
    eager, _ = unstable_verdicts(problem, all_routes(problem))
    assert lazy == eager
    assert "sat" in lazy.values() and "unsat" in lazy.values()
    for app, solution in witnesses.items():
        assert collect_violations(solution, check_stability=False) == []
        assert solution.app_report(app).stable is False


class TestExtension:
    def test_first_check_is_the_shortest_route_probe(self):
        # Every random paper-scale network solves on shortest routes.
        result = solve(W.random_problem(0, n_apps=10), SynthesisOptions())
        assert result.ok and certified(result)
        assert result.statistics["route_extensions"] == 0
        assert all(s.route == route_candidates(
            result.solution.problem.network, s.route[0], s.route[-1], 1)[0]
            for s in result.solution.schedules.values())

    def test_detour_is_found_by_extension(self):
        # PR 27's wrong-unsat instance: the answer needs a second route.
        result = solve(W.detour_problem(), SynthesisOptions())
        assert result.ok and certified(result)
        assert result.statistics["route_extensions"] >= 1
        assert result.statistics["assumption_probes"] == 0

    def test_exhausted_generator_closes_the_message(self):
        # The chain network has one route per app: refuting the short
        # period needs every beyond literal asserted false.
        problem = W.chain_problem(period=Fraction(9, 1000))
        session = Session()
        encoder = Encoder(problem, session)
        for message in problem.messages:
            encoder.encode_message(message)
        for app in problem.apps:
            encoder.add_stability_constraints(app)
        assert check_routed(session, encoder, []) == "unsat"
        assert all(len(plan.routes) == 1 and plan.beyond is None
                   for plan in encoder.plans.values())

    def test_deadline_mode_extends_too(self):
        result = solve(W.bottleneck_problem(3),
                       SynthesisOptions(mode=MODE_DEADLINE))
        assert result.ok and certified(result)
        assert result.statistics["route_extensions"] >= 1

    def test_proof_reports_no_explanation(self):
        result = solve(W.sharing_unsat_problem(), SynthesisOptions())
        assert result.status == "unsat"
        assert result.unsat_explanation is None
        assert result.statistics["route_extensions"] > 0


# ---------------------------------------------------------------------------
# Which constraints carry a beyond literal
# ---------------------------------------------------------------------------


def _bool_vars(expr):
    if isinstance(expr, BoolVar):
        yield expr
    elif isinstance(expr, NotExpr):
        yield from _bool_vars(expr.arg)
    elif isinstance(expr, (AndExpr, OrExpr)):
        for arg in expr.args:
            yield from _bool_vars(arg)


def _is_beyond(var) -> bool:
    return "!beyond" in var.name


def _kind(expr) -> str:
    """Name the constraint family of an assertion with a beyond literal."""
    if isinstance(expr, NotExpr):
        return "closed"
    args = expr.args
    if any(isinstance(a, AndExpr) for a in args):
        atom = next(a.args[1] for a in args if isinstance(a, AndExpr))
        assert isinstance(atom, Atom)
        names = {v.name for v, _ in atom.coeffs}
        if any("/Lmin[" in name for name in names):
            return "Lmin attainment"
        assert any("/Lmax[" in name for name in names)
        return "Lmax attainment"
    negated = [a.arg for a in args if isinstance(a, NotExpr)]
    if negated and _is_beyond(negated[0]):
        return "extension chain"
    if negated:
        return "guarded pin"
    assert all(isinstance(a, BoolVar) for a in args)
    return "route (Eq. 8)"


#: The families that need *some* route of a message and therefore carry
#: its beyond literal as a disjunct (rule 1 of ``core/encoding.py``).
NEEDS_SOME_ROUTE = {"route (Eq. 8)", "Lmin attainment", "Lmax attainment"}
#: The families that only maintain the beyond literal itself.
BOOKKEEPING = {"extension chain", "closed", "guarded pin"}


def _beyond_kinds(session):
    return {_kind(expr) for expr in session.assertions
            if any(_is_beyond(v) for v in _bool_vars(expr))}


def test_beyond_literal_constraint_list_is_pinned():
    # Synthesis (Lmin), the negated check (Lmax), an extension, an
    # exhausted generator and a repair pin.
    problem = W.bottleneck_problem(3)
    session = Session()
    encoder = Encoder(problem, session)
    for message in problem.messages:
        encoder.encode_message(message)
    guards = [Bool(f"unstable[{app.name}]") for app in problem.apps]
    for app, guard in zip(problem.apps, guards):
        encoder.add_stability_constraints(app, tag="t")
        encoder.add_stability_constraints(app, unstable=guard)
    assert check_routed(session, encoder, []) == "sat"
    assert any(len(plan.routes) > 1 for plan in encoder.plans.values())
    model = check_routed(session, encoder, []).require_model()
    guard = Bool("pin")
    encoder.freeze_message(next(iter(encoder.plans.values())), model,
                           guard=guard)
    encoder.reach_route(next(iter(encoder.plans)), 50)
    assert _beyond_kinds(session) == NEEDS_SOME_ROUTE | BOOKKEEPING


def test_staged_pin_asserts_the_message_closed():
    session = Session()
    result = solve(W.gm_case_study(3), SynthesisOptions(stages=3),
                   session=session)
    assert result.ok and certified(result)
    assert result.stages_completed == 3
    kinds = _beyond_kinds(session)
    assert "closed" in kinds
    assert kinds <= NEEDS_SOME_ROUTE | BOOKKEEPING


# ---------------------------------------------------------------------------
# The knowledge boundary
# ---------------------------------------------------------------------------


def _exported(options, problem):
    session, engine = open_session(options)
    result = solve(problem, options, session=session)
    return result, engine, export_knowledge(options, engine,
                                            result.route_veto)


def _literals(clauses):
    return [lit for clause in clauses for lit in clause]


class TestKnowledgeBoundary:
    def test_routes1_clauses_and_veto_keep_a_sat_problem_sat(self):
        # BENCH_portfolio's serial mid-check race, reduced: a budgeted
        # routes-1 exporter's clauses, then a routes-1 refutation's
        # clauses and veto, seed a complete-mode run of a sat funnel.
        problem = W.bottleneck_problem(7, period=Fraction(8, 1000))
        budgeted, _, midcheck = _exported(
            SynthesisOptions(routes=1, max_conflicts=50), problem)
        refuted, _, proof = _exported(SynthesisOptions(routes=1), problem)
        assert budgeted.status == "unknown" and midcheck.clauses
        assert refuted.status == "unsat" and proof.route_veto
        seeded = solve(problem, SynthesisOptions(
            seed_knowledge=(replace(midcheck, midcheck=True), proof)))
        assert seeded.ok and certified(seeded)
        assert seeded.statistics["clauses_imported"] > 0
        assert seeded.statistics["route_vetoes_applied"] == 1

    def test_complete_mode_exports_no_beyond_literal(self):
        options = SynthesisOptions()
        result, engine, knowledge = _exported(options,
                                              W.sharing_unsat_problem())
        assert result.status == "unsat"
        # Non-vacuous: without the vocabulary filter the engine's facts
        # do mention beyond literals (the exhausted messages' units).
        facts = engine.export_unit_clauses(max_count=1000)
        assert any("!beyond" in lit[1] for lit in _literals(facts)
                   if lit[0] == "b")
        assert knowledge.clauses
        assert not any("!beyond" in lit[1]
                       for lit in _literals(knowledge.clauses)
                       if lit[0] == "b")

    def test_cached_complete_mode_unsat_seeds_the_same_verdict(self, tmp_path):
        problem = W.sharing_unsat_problem()
        options = SynthesisOptions()
        result, _, knowledge = _exported(options, problem)
        assert result.status == "unsat" and knowledge.route_veto
        KnowledgeCache(tmp_path).store("key", options, result.status,
                                       knowledge)
        entry = KnowledgeCache(tmp_path).lookup("key")
        assert entry is not None and entry.knowledge == knowledge
        repeat = solve(problem, replace(options,
                                        seed_knowledge=(entry.knowledge,)))
        assert repeat.status == "unsat"
        assert repeat.statistics["route_vetoes_applied"] == 1
        assert repeat.statistics["conflicts"] == 0
