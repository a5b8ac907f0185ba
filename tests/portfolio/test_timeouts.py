"""Per-strategy timeouts and restart schedules in the portfolio engine."""

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.eval import workloads
from repro.portfolio import (
    STATUS_SAT,
    Strategy,
    synthesize_portfolio,
)


def _tiny_problem():
    return workloads.random_problem(0, n_apps=3)


class TestStrategyFields:
    def test_defaults(self):
        s = Strategy("s", SynthesisOptions(routes=1))
        assert s.timeout is None
        assert s.restarts == ()

    def test_restarts_require_timeout(self):
        with pytest.raises(ValueError, match="restart schedule"):
            Strategy("s", SynthesisOptions(routes=1), restarts=(1.0,))

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            Strategy("s", SynthesisOptions(routes=1), timeout=-1.0)

    def test_restarts_coerced_to_tuple(self):
        s = Strategy("s", SynthesisOptions(routes=1), timeout=1.0,
                     restarts=[2.0, 4.0])
        assert s.restarts == (2.0, 4.0)


class TestRacingWithBudgets:
    def test_per_strategy_timeout_does_not_block_winner(self):
        """A strategy stuck at a zero budget must not stall the race."""
        problem = _tiny_problem()
        entries = [
            Strategy("starved", SynthesisOptions(routes=3, stages=4),
                     timeout=0.0),
            Strategy("free", SynthesisOptions(routes=1)),
        ]
        res = synthesize_portfolio(problem, entries)
        assert res.status == STATUS_SAT
        assert res.winner == "free"
        starved = res.result_for("starved")
        # Killed at its own deadline (or cancelled if the winner landed in
        # the same poll window) — never the winner, exactly one attempt.
        assert starved.status != STATUS_SAT
        assert starved.attempts == 1

    def test_restart_schedule_retries_until_sat(self):
        """A generous restart budget lets a starved strategy finish."""
        problem = _tiny_problem()
        entries = [
            Strategy("retrying", SynthesisOptions(routes=1),
                     timeout=0.0, restarts=(120.0,)),
        ]
        res = synthesize_portfolio(problem, entries)
        assert res.status == STATUS_SAT
        assert res.winner == "retrying"
        assert res.result_for("retrying").attempts == 2

    def test_serial_backend_ignores_budgets(self):
        problem = _tiny_problem()
        entries = [
            Strategy("only", SynthesisOptions(routes=1), timeout=0.0),
        ]
        res = synthesize_portfolio(problem, entries, backend="serial")
        assert res.status == STATUS_SAT
        assert res.result_for("only").attempts == 1
