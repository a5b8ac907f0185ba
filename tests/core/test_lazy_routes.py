"""Lazy routes: every run encodes each message's shortest route and
extends only where an unsat core asks, up to its route limit.

The reference is the eager formula, built by the same encoder: each
message gets its first K routes as it is encoded
(:meth:`Encoder.reach_route`, see :func:`eager_solve`), so no check
extends.  Every route list is a prefix of the all-routes order, so the
eager complete formula is K = the largest number of simple routes any
app has.  Single-stage verdicts must be equal; staged ones may differ
where the loop's first check (every new message on its shortest route)
freezes another model than the eager formula's first check, and the
differences are pinned.  Every ``sat`` must certify.  The knowledge
tests pin the boundaries where a route limit or a beyond literal could
leak into another run: verbatim imports across route limits, the route
veto, exports (never holding a beyond literal) and cache entries
written while a route limit was a clause.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.api import Session
from repro.core import (MODE_DEADLINE, MODE_STABILITY, Encoder,
                        SynthesisOptions, collect_violations, solve)
from repro.core.encoding import SHARED_NAMESPACE
from repro.core.synthesizer import open_session, refine
from repro.eval import workloads as W
from repro.eval.experiments import unstable_verdicts
from repro.network.paths import route_candidates
from repro.runtime.knowledge import export_knowledge
from repro.service import problem_fingerprint
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


def eager_solve(problem, options, k):
    """``solve`` on the eager routes-``k`` formula of the same encoder:
    every message gets its first ``k`` routes as it is encoded, so no
    check extends a route."""
    encode = Encoder.encode_message

    def encode_eagerly(self, message):
        plan = encode(self, message)
        self.reach_route(message.uid, k)
        return plan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Encoder, "encode_message", encode_eagerly)
        return solve(problem, options)


#: case -> route limit -> {repair: (lazy, eager)} at stages 3 where the
#: two differ.  On the repair trap the loop's first stage-0 check puts
#: every message on its shortest route, and that freeze blocks stage 1
#: (as the probe ladder's did before route limits became assumptions);
#: the eager formula's first stage-0 model does not.
STAGED_DIFFERENCES = {
    "bottleneck_repair_problem": {None: {False: ("unsat", "sat")},
                                  2: {False: ("unsat", "sat")},
                                  3: {False: ("unsat", "sat")}},
}


def assert_loop_matches_eager(case, routes, k):
    """The loop at ``routes`` against the eager routes-``k`` formula:
    equal single-stage verdicts, every ``sat`` certified, and at stages
    3 (repair off and on) only the pinned differences."""
    problem = CASES[case]()
    options = SynthesisOptions(routes=routes)
    lazy, want = solve(problem, options), eager_solve(problem, options, k)
    assert lazy.status == want.status, routes
    assert certified(lazy) and certified(want)
    differ = {}
    for repair in (False, True):
        options = SynthesisOptions(routes=routes, stages=3, repair=repair)
        lazy, want = solve(problem, options), eager_solve(problem, options, k)
        assert certified(lazy) and certified(want)
        if lazy.status != want.status:
            differ[repair] = (lazy.status, want.status)
    assert differ == STAGED_DIFFERENCES.get(case, {}).get(routes, {}), routes


@pytest.mark.parametrize("case", sorted(CASES))
def test_lazy_verdict_equals_the_eager_complete_formula(case):
    assert_loop_matches_eager(case, None, all_routes(CASES[case]()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_route_limit_verdict_equals_the_eager_routes_k_formula(case):
    for k in (1, 2, 3):
        assert_loop_matches_eager(case, k, k)


def test_slow_funnel_stays_unsat():
    # The pigeonhole funnel is unsat by construction.  Seeded with its
    # routes-1 export (verbatim clauses and a veto), the complete run
    # still proves it through extensions.  The eager run and a routes-2
    # or routes-3 recipient each take as long (about 20 s), so only
    # this run is made.
    problem = W.slow_funnel_problem()
    _, _, knowledge = _exported(SynthesisOptions(routes=1), problem)
    assert knowledge.clauses and knowledge.route_veto
    result = solve(problem, SynthesisOptions(seed_knowledge=(knowledge,)))
    assert result.status == "unsat"
    assert result.statistics["route_extensions"] > 0
    assert result.statistics["clauses_imported"] == len(knowledge.clauses)
    assert result.statistics["route_vetoes_applied"] == 1


def eager_unstable_verdicts(problem, routes, k):
    """:func:`unstable_verdicts` on the eager routes-``k`` formula: every
    message gets its first ``k`` routes as it is encoded."""
    encode = Encoder.encode_message

    def encode_eagerly(self, message):
        plan = encode(self, message)
        self.reach_route(message.uid, k)
        return plan

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Encoder, "encode_message", encode_eagerly)
        return unstable_verdicts(problem, routes)


def test_unstable_verdicts_equal_the_eager_ones():
    problem = W.gm_case_study(6)
    lazy, witnesses = unstable_verdicts(problem, None)
    k = all_routes(problem)
    eager, _ = eager_unstable_verdicts(problem, k, k)
    assert lazy == eager
    assert "sat" in lazy.values() and "unsat" in lazy.values()
    for app, solution in witnesses.items():
        assert collect_violations(solution, check_stability=False) == []
        assert solution.app_report(app).stable is False


def test_unstable_verdicts_at_a_route_limit_equal_the_lazy_loop():
    # unstable_verdicts is the lazy loop under a limit too; the routes
    # encoded up front give the same answers.
    problem = W.gm_case_study(6)
    eager, _ = eager_unstable_verdicts(problem, 3, 3)
    lazy, witnesses = unstable_verdicts(problem, 3)
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
        assert refine(session, encoder) == "unsat"
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
# Raw cores: synthesis reads the final-conflict core as it comes
# ---------------------------------------------------------------------------


class LoopTrace:
    """Every ``Session.check`` of a run, with what the loop did next.

    Per check: its outcome, the messages its core names that could
    still extend (``within`` named, below the route limit), and the
    messages :meth:`Encoder.extend_route` encoded a route for before
    the next check.  With ``recheck`` each unsat core is checked again
    on its own, in the same session, right after the check that
    produced it.
    """

    def __init__(self, patch, recheck=False):
        self.rounds = []
        encoders = {}
        check, init = Session.check, Encoder.__init__
        extend = Encoder.extend_route

        def traced_init(encoder, problem, solver, *args, **kwargs):
            init(encoder, problem, solver, *args, **kwargs)
            encoders[id(solver)] = encoder

        def traced_check(session, *assumptions):
            outcome = check(session, *assumptions)
            named = None
            if outcome == "unsat":
                core = outcome.unsat_core or ()
                assert set(core) <= set(outcome.assumptions)
                if recheck:
                    assert check(session, *core) == "unsat"
                encoder = encoders[id(session)]
                limit = encoder.route_limit
                named = {uid for uid, plan in encoder.plans.items()
                         if plan.within is not None and plan.within in core
                         and (limit is None or len(plan.routes) < limit)}
            self.rounds.append((outcome, named, set()))
            return outcome

        def traced_extend(encoder, uid):
            extended = extend(encoder, uid)
            if extended and self.rounds:
                self.rounds[-1][2].add(uid)
            return extended

        patch.setattr(Encoder, "__init__", traced_init)
        patch.setattr(Session, "check", traced_check)
        patch.setattr(Encoder, "extend_route", traced_extend)

    def unsat_rounds(self):
        return [r for r in self.rounds if r[0] == "unsat"]


#: The service's funnel families (a feasible and an infeasible period,
#: with and without islands) at routes 1, 2 and None, and one repair run.
RAW_CORE_RUNS = {
    **{f"funnel(islands={i}, routes={k})":
       (lambda i=i: W.bottleneck_problem(3, period=Fraction(45, 10000),
                                         islands=i),
        SynthesisOptions(routes=k))
       for i in (0, 2) for k in (1, 2, None)},
    **{f"funnel_unsat(islands={i}, routes={k})":
       (lambda i=i: W.bottleneck_problem(4, period=Fraction(305, 100000),
                                         islands=i),
        SynthesisOptions(routes=k))
       for i in (0, 2) for k in (1, 2, None)},
    "repair": (W.bottleneck_repair_problem,
               SynthesisOptions(routes=2, stages=2, repair=True)),
}


@pytest.mark.parametrize("case", sorted(RAW_CORE_RUNS))
def test_solve_reads_raw_cores(case):
    # No check minimises; each round extends exactly the extendable
    # messages its core names, and only after an unsat.
    make, options = RAW_CORE_RUNS[case]
    with pytest.MonkeyPatch.context() as patch:
        trace = LoopTrace(patch, recheck=True)
        result = solve(make(), options)
    assert certified(result)
    unsat = trace.unsat_rounds()
    assert any(outcome.unsat_core for outcome, _, _ in unsat)
    assert any(named for _, named, _ in unsat) == (options.routes != 1)
    for outcome, named, extended in trace.rounds:
        assert outcome.statistics.get("core_minimization_checks", 0) == 0
        assert extended == (named or set())


@pytest.mark.parametrize("routes", [3, None])
def test_unstable_verdicts_read_raw_cores(routes):
    with pytest.MonkeyPatch.context() as patch:
        trace = LoopTrace(patch, recheck=True)
        verdicts, _ = unstable_verdicts(W.gm_case_study(6), routes)
    assert "unsat" in verdicts.values()
    assert any(outcome.unsat_core for outcome, _, _ in trace.unsat_rounds())
    for outcome, _, _ in trace.rounds:
        assert outcome.statistics.get("core_minimization_checks", 0) == 0


def test_session_still_minimises_by_default():
    problem = W.sharing_unsat_problem()
    session = Session()
    encoder = Encoder(problem, session, 2)
    for message in problem.messages:
        encoder.encode_message(message)
    for app in problem.apps:
        encoder.add_stability_constraints(app)
    outcome = refine(session, encoder)
    assert outcome == "unsat" and outcome.unsat_core
    assert outcome.statistics["core_minimization_checks"] > 0


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
    assert refine(session, encoder) == "sat"
    assert any(len(plan.routes) > 1 for plan in encoder.plans.values())
    model = refine(session, encoder).require_model()
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


#: Byte for byte what the cache stored while a route limit K was encoded
#: as clauses (only the first K routes, no beyond literal), so the
#: clauses hold only together with the limit: the sat of
#: ``sharing_problem()`` at routes 2 and the unsat of ``detour_problem()``
#: at routes 1, whose units put every message on its shortest route.
PARENT_FORMAT_ENTRIES = {
    "sat": (W.sharing_problem, SynthesisOptions(routes=2), (
        '{"clauses": [[["a", [["p/g[app0#0][A]", "-1"]], "-201/200000",'
        ' false, false]], [["b", "p/R[app0#0][1]", true]], [["b",'
        ' "p/R[app0#0][0]", false]], [["a", [["p/g[app0#0][A]", "1"],'
        ' ["p/g[app0#0][B]", "-1"]], "-201/200000", false, false]], [["a",'
        ' [["p/g[app0#0][B]", "1"]], "1/125", false, false]], [["b",'
        ' "p/R[app1#0][1]", true]], [["b", "p/R[app1#0][0]", false]],'
        ' [["a", [["p/g[app1#0][A]", "-1"]], "-201/200000", false, false]],'
        ' [["a", [["p/g[app1#0][A]", "1"], ["p/g[app1#0][B]", "-1"]],'
        ' "-201/200000", false, false]], [["a", [["p/g[app1#0][B]", "1"]],'
        ' "1/125", false, false]], [["a", [["p/g[app0#0][A]", "-1"],'
        ' ["p/g[app1#0][A]", "1"]], "-1/1000", false, true]], [["a",'
        ' [["p/g[app0#0][A]", "1"], ["p/g[app1#0][A]", "-1"]], "-1/1000",'
        ' false, false]]], "created": 1792411577.4221475,'
        ' "fingerprint": "cb19fc5e3ac050aab9ab0b678c9970c8",'
        ' "options": {"mode": "stability", "path_cutoff": null,'
        ' "repair": false, "routes": 2, "stages": 1}, "route_veto": null,'
        ' "schedules": null, "status": "sat", "version": 1, "work": {}}\n'
    )),
    "unsat": (W.detour_problem, SynthesisOptions(routes=1), (
        '{"clauses": [[["b", "p/R[b0#0][0]", false]], [["a",'
        ' [["p/g[b0#0][M]", "-1"]], "-201/200000", false, false]], [["a",'
        ' [["p/g[b0#0][M]", "1"], ["p/g[b0#0][N]", "-1"]], "-201/200000",'
        ' false, false]], [["a", [["p/g[b0#0][N]", "1"]], "1/125", false,'
        ' false]], [["b", "p/R[b1#0][0]", false]], [["a", [["p/g[b1#0][M]",'
        ' "-1"]], "-201/200000", false, false]], [["a", [["p/g[b1#0][M]",'
        ' "1"], ["p/g[b1#0][N]", "-1"]], "-201/200000", false, false]],'
        ' [["a", [["p/g[b1#0][N]", "1"]], "1/125", false, false]], [["b",'
        ' "p/R[m#0][0]", false]], [["a", [["p/g[m#0][M]", "-1"]],'
        ' "-201/200000", false, false]], [["a", [["p/g[m#0][M]", "1"],'
        ' ["p/g[m#0][N]", "-1"]], "-201/200000", false, false]], [["a",'
        ' [["p/g[m#0][N]", "1"]], "1/125", false, false]], [["a",'
        ' [["p/g[b0#0][M]", "-1"], ["p/g[m#0][M]", "1"]], "-1/1000", false,'
        ' true]], [["a", [["p/g[b0#0][M]", "1"], ["p/g[m#0][M]", "-1"]],'
        ' "-1/1000", false, false]], [["a", [["p/g[b1#0][M]", "-1"],'
        ' ["p/g[m#0][M]", "1"]], "-1/1000", false, true]], [["a",'
        ' [["p/g[b1#0][M]", "1"], ["p/g[m#0][M]", "-1"]], "-1/1000", false,'
        ' false]], [["a", [["p/g[b0#0][M]", "-1"], ["p/g[b1#0][M]", "1"]],'
        ' "-1/1000", false, true]], [["a", [["p/g[b0#0][M]", "1"],'
        ' ["p/g[b1#0][M]", "-1"]], "-1/1000", false, false]]],'
        ' "created": 1792411577.4333274,'
        ' "fingerprint": "3dfa77d12ff3ad6cf1c3e51a46451261",'
        ' "options": {"mode": "stability", "path_cutoff": null,'
        ' "repair": false, "routes": 1, "stages": 1},'
        ' "route_veto": [["b0#0", 1], ["b1#0", 1], ["m#0", 1]],'
        ' "schedules": null, "status": "unsat", "version": 1, "work": {}}\n'
    )),
}


class TestKnowledgeBoundary:
    @pytest.mark.parametrize("make", [W.sharing_problem,
                                      W.sharing_unsat_problem])
    def test_routes1_export_imports_verbatim_at_every_limit(self, make):
        problem = make()
        _, _, knowledge = _exported(SynthesisOptions(routes=1), problem)
        assert knowledge.clauses and knowledge.route_veto
        for routes in (2, 3, None):
            options = SynthesisOptions(routes=routes)
            seeded = solve(problem, replace(options,
                                            seed_knowledge=(knowledge,)))
            assert seeded.status == solve(problem, options).status, routes
            assert certified(seeded)
            assert (seeded.statistics["clauses_imported"]
                    == len(knowledge.clauses))
            assert seeded.statistics["route_vetoes_applied"] == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_route_veto_names_exactly_the_core_messages(self, k):
        problem = W.sharing_unsat_problem()
        result = solve(problem, SynthesisOptions(routes=k))
        assert result.status == "unsat"
        veto = dict(result.route_veto)
        assert set(veto.values()) == {k}
        assert 0 < len(veto) < len(problem.messages)
        # The final core of the same loop, run by hand on the same kind
        # of session (raw cores).
        session, _ = open_session(SynthesisOptions(routes=k))
        encoder = Encoder(problem, session, k, namespace=SHARED_NAMESPACE)
        for message in problem.messages:
            encoder.encode_message(message)
        for app in problem.apps:
            encoder.add_stability_constraints(app, tag="s0")
        outcome = refine(session, encoder)
        assert outcome == "unsat"
        assert veto.keys() == {uid for uid, plan in encoder.plans.items()
                               if plan.within in outcome.unsat_core}
        # Sound: every other message on any route, the vetoed ones on
        # their first k, is unsat too.
        session = Session()
        encoder = Encoder(problem, session)
        for message in problem.messages:
            encoder.encode_message(message)
        for app in problem.apps:
            encoder.add_stability_constraints(app)
        for uid in veto:
            encoder.reach_route(uid, k)
            if encoder.plans[uid].within is not None:
                session.add(encoder.plans[uid].within)
        assert refine(session, encoder) == "unsat"

    @pytest.mark.parametrize("status", sorted(PARENT_FORMAT_ENTRIES))
    def test_parent_format_entry_seeds_its_own_repeat(self, tmp_path,
                                                      status):
        make, options, blob = PARENT_FORMAT_ENTRIES[status]
        problem = make()
        key = problem_fingerprint(problem, options)
        (tmp_path / f"{key}.json").write_text(blob)
        entry = KnowledgeCache(tmp_path).lookup(key)
        assert entry is not None and entry.status == status
        repeat = solve(problem, replace(
            options, seed_knowledge=(entry.knowledge,)))
        assert repeat.status == status and certified(repeat)
        assert (repeat.statistics["clauses_imported"]
                == len(entry.knowledge.clauses))
        if status == "unsat":
            # Non-vacuous: the clauses hold only under routes=1.  In the
            # complete formula, under another fingerprint the cache never
            # serves them to, they refute the detour's sat.
            assert solve(problem).ok
            assert solve(problem, SynthesisOptions(
                seed_knowledge=(entry.knowledge,))).status == "unsat"

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
