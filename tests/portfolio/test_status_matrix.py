"""The no-winner status matrix: races must never fabricate ``unsat``.

Regression suite for the phantom-unsat bug: a race with no winner used to
report ``unsat`` even when every strategy merely timed out or crashed.
The sound vocabulary: ``sat`` (winner), ``unsat`` (a *complete* strategy
proved it, named by ``verdict_by``), ``timeout`` (undecided at a
deadline), ``unknown`` (heuristic failures / errors only).
"""

from fractions import Fraction

import pytest

from repro.core import (
    ControlApplication,
    MODE_DEADLINE,
    SynthesisOptions,
    SynthesisProblem,
    validate_solution,
)
from repro.network import DelayModel, Network, microseconds
from repro.portfolio import (
    STATUS_ERROR,
    STATUS_SAT,
    STATUS_TIMEOUT,
    STATUS_UNKNOWN,
    STATUS_UNSAT,
    Strategy,
    synthesize_portfolio,
)
from repro.portfolio.engine import _result_from_payload
from repro.runtime.faults import CRASH, HANG, FaultPlan, FaultSpec
from repro.eval import workloads
from repro.eval.workloads import detour_problem

FAST = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))


def unsat_problem() -> SynthesisProblem:
    """More traffic than one link can carry within the deadline."""
    net = Network()
    net.add_switch("SW0")
    net.add_switch("SW1")
    net.add_link("SW0", "SW1")
    n = 4
    for i in range(n):
        net.add_sensor(f"S{i}")
        net.add_controller(f"C{i}")
        net.add_link(f"S{i}", "SW0")
        net.add_link(f"C{i}", "SW1")
    period = FAST.ld * 3
    apps = [
        ControlApplication(f"a{i}", f"S{i}", f"C{i}", period, None)
        for i in range(n)
    ]
    return SynthesisProblem(net, apps, FAST)


def nospec_problem() -> SynthesisProblem:
    """Stability mode without stability specs: every strategy errors."""
    net = Network()
    net.add_switch("SW0")
    net.add_switch("SW1")
    net.add_link("SW0", "SW1")
    net.add_sensor("S0")
    net.add_controller("C0")
    net.add_link("S0", "SW0")
    net.add_link("C0", "SW1")
    apps = [ControlApplication("a0", "S0", "C0", Fraction(1, 100), None)]
    return SynthesisProblem(net, apps, FAST)


class TestNoWinnerMatrix:
    def test_all_timeout_is_not_unsat(self):
        """Every attempt killed at a zero deadline: the race is undecided."""
        problem = workloads.random_problem(0, n_apps=3)
        entries = [
            Strategy("t1", SynthesisOptions(routes=1)),
            Strategy("t2", SynthesisOptions(routes=2)),
        ]
        res = synthesize_portfolio(problem, entries, backend="process",
                                   timeout=0.0)
        assert res.status == STATUS_TIMEOUT
        assert res.status != STATUS_UNSAT and not res.ok
        assert res.winner is None and res.verdict_by is None
        assert res.solution is None

    def test_global_deadline_is_not_unsat(self):
        problem = workloads.random_problem(0, n_apps=4)
        entries = [
            Strategy("slow-a", SynthesisOptions(routes=3, stages=4)),
            Strategy("slow-b", SynthesisOptions(routes=3)),
        ]
        # Both workers hang before solving (stall detection is opt-in and
        # off here), so the deadline, not the machine's speed, ends the race.
        never_finishes = FaultPlan([FaultSpec(HANG, attempt=0)])
        res = synthesize_portfolio(problem, entries, backend="process",
                                   timeout=0.05, fault_plan=never_finishes)
        assert res.status == STATUS_TIMEOUT
        assert res.winner is None and res.verdict_by is None

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_all_error_is_unknown(self, backend):
        entries = [
            Strategy("err-1", SynthesisOptions(routes=1)),
            Strategy("err-2", SynthesisOptions(routes=2)),
        ]
        res = synthesize_portfolio(nospec_problem(), entries, backend=backend,
                                   timeout=120)
        assert res.status == STATUS_UNKNOWN
        assert res.winner is None and res.verdict_by is None
        for sr in res.strategy_results:
            assert sr.status == STATUS_ERROR

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_unsat_needs_a_complete_prover(self, backend):
        """Heuristic unsats alone leave the race unknown; a monolithic
        proof upgrades it to unsat and is credited on verdict_by."""
        heuristics = [
            Strategy("routes-1",
                     SynthesisOptions(mode=MODE_DEADLINE, routes=1)),
            Strategy("stages-2",
                     SynthesisOptions(mode=MODE_DEADLINE, routes=1, stages=2)),
        ]
        res = synthesize_portfolio(unsat_problem(), heuristics,
                                   backend=backend, timeout=120)
        assert res.status == STATUS_UNKNOWN
        assert res.verdict_by is None

        with_complete = heuristics + [
            Strategy("monolithic",
                     SynthesisOptions(mode=MODE_DEADLINE, routes=None)),
        ]
        res = synthesize_portfolio(unsat_problem(), with_complete,
                                   backend=backend, timeout=120)
        assert res.status == STATUS_UNSAT and not res.ok
        assert res.verdict_by == "monolithic"
        assert res.winner is None and res.solution is None
        assert res.result_for("monolithic").status == STATUS_UNSAT

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_shared_knowledge_names_routes_by_the_same_index(self, backend):
        """Regression: routes-1's veto and clauses name route *indices*.
        While the all-routes list was in depth-first order, index 0 was
        the detour there, and the seeded monolithic "proved" unsat."""
        strategies = [Strategy("routes-1", SynthesisOptions(routes=1)),
                      Strategy("monolithic", SynthesisOptions())]
        # One worker at a time: the monolithic starts seeded with what
        # routes-1 pooled, on both backends.
        res = synthesize_portfolio(detour_problem(), strategies,
                                   backend=backend, max_workers=1,
                                   timeout=120)
        assert res.result_for("routes-1").status == STATUS_UNSAT
        assert res.pool_statistics["vetoes_pooled"] >= 1
        assert res.status == STATUS_SAT and res.winner == "monolithic"
        validate_solution(res.solution)

    def test_path_cutoff_unsat_is_not_a_proof(self):
        """A cutoff drops the detour, so its unsat proves nothing."""
        cut = [Strategy("cut3", SynthesisOptions(path_cutoff=3))]
        res = synthesize_portfolio(detour_problem(), cut, backend="serial",
                                   timeout=120)
        assert res.result_for("cut3").status == STATUS_UNSAT
        assert res.status == STATUS_UNKNOWN and res.verdict_by is None

    def test_sat_after_restart_names_the_winner(self):
        problem = workloads.random_problem(0, n_apps=3)
        entries = [Strategy("retrying", SynthesisOptions(routes=1))]
        killed_once = FaultPlan([FaultSpec(CRASH, attempt=1)])
        res = synthesize_portfolio(problem, entries, fault_plan=killed_once)
        assert res.status == STATUS_SAT and res.ok
        assert res.winner == "retrying"
        assert res.verdict_by == "retrying"
        assert res.result_for("retrying").attempts == 2


class TestPayloadValidation:
    """All worker payloads flow through one validating constructor."""

    def test_unknown_status_becomes_error(self):
        sr = _result_from_payload("w", {"status": "gibberish"}, 0.1)
        assert sr.status == STATUS_ERROR
        assert "gibberish" in sr.error

    def test_sat_without_schedules_becomes_error(self):
        sr = _result_from_payload("w", {"status": "sat", "schedules": None}, 0.1)
        assert sr.status == STATUS_ERROR
        assert "schedule" in sr.error

    def test_non_dict_payload_becomes_error(self):
        sr = _result_from_payload("w", None, 0.1)
        assert sr.status == STATUS_ERROR

    def test_attempts_passed_through(self):
        sr = _result_from_payload("w", {"status": "unsat"}, 0.1, attempts=3)
        assert sr.status == STATUS_UNSAT and sr.attempts == 3
