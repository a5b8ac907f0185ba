"""End-to-end portfolio racing on a small mesh topology.

The mesh (4 switches in a square with one diagonal) offers genuine route
diversity, so every default strategy family — monolithic, route-subset,
incremental — is exercised meaningfully.  The winning schedule must pass
the independent validator and agree with running the winning strategy on
its own.
"""

from fractions import Fraction

import pytest

from repro.core import (
    ControlApplication,
    MODE_DEADLINE,
    SynthesisOptions,
    SynthesisProblem,
    collect_violations,
    solve,
)
from repro.network import DelayModel, Network, microseconds
from repro.portfolio import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_SAT,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    STATUS_UNSAT,
    Strategy,
    default_portfolio,
    synthesize_portfolio,
)
from repro.stability import StabilitySpec

FAST = DelayModel(sd=microseconds(5), ld=Fraction(120, 1_000_000))

TERMINAL = {STATUS_SAT, STATUS_UNSAT, STATUS_ERROR,
            STATUS_CANCELLED, STATUS_TIMEOUT, STATUS_SKIPPED}


def ms(x):
    return Fraction(x) / 1000


def mesh_network(n_apps=2) -> Network:
    """A 2x2 switch mesh (square + diagonal) with per-app endpoints."""
    net = Network()
    for i in range(4):
        net.add_switch(f"SW{i}")
    for u, v in (("SW0", "SW1"), ("SW1", "SW2"), ("SW2", "SW3"),
                 ("SW3", "SW0"), ("SW0", "SW2")):
        net.add_link(u, v)
    for i in range(n_apps):
        net.add_sensor(f"S{i}")
        net.add_controller(f"C{i}")
        net.add_link(f"S{i}", f"SW{i % 4}")
        net.add_link(f"C{i}", f"SW{(i + 2) % 4}")
    return net


def mesh_problem(n_apps=2, period_ms=10, beta_ms=8) -> SynthesisProblem:
    apps = [
        ControlApplication(
            f"app{i}", f"S{i}", f"C{i}", ms(period_ms),
            StabilitySpec.single_line("1.5", str(float(ms(beta_ms)))),
        )
        for i in range(n_apps)
    ]
    return SynthesisProblem(mesh_network(n_apps), apps, FAST)


def small_portfolio():
    return [
        Strategy("routes-1", SynthesisOptions(routes=1)),
        Strategy("routes-2", SynthesisOptions(routes=2)),
        Strategy("stages-2", SynthesisOptions(routes=2, stages=2)),
    ]


class TestPortfolioEndToEnd:
    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_winner_is_validator_clean(self, backend):
        problem = mesh_problem()
        res = synthesize_portfolio(
            problem, small_portfolio(), backend=backend, timeout=120
        )
        assert res.ok and res.status == STATUS_SAT
        assert res.winner in {s.name for s in small_portfolio()}
        assert collect_violations(res.solution) == []
        # Every message of the hyper-period is scheduled.
        assert set(res.solution.schedules) == {m.uid for m in problem.messages}

    def test_winner_matches_single_strategy_validity(self):
        """Re-running the winning strategy alone reproduces satisfiability."""
        problem = mesh_problem()
        entries = small_portfolio()
        res = synthesize_portfolio(problem, entries, backend="process",
                                   timeout=120)
        assert res.ok
        winner_opts = next(
            s.options for s in entries if s.name == res.winner
        )
        alone = solve(problem, winner_opts)
        assert alone.ok
        assert collect_violations(alone.solution) == []

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_per_strategy_reports(self, backend):
        entries = small_portfolio()
        res = synthesize_portfolio(
            mesh_problem(), entries, backend=backend, timeout=120
        )
        assert len(res.strategy_results) == len(entries)
        assert [sr.name for sr in res.strategy_results] == [
            s.name for s in entries
        ]
        for sr in res.strategy_results:
            assert sr.status in TERMINAL
            assert sr.wall_time >= 0.0
            if sr.status == STATUS_SAT:
                assert sr.statistics.get("conflicts") is not None
        # The designated winner genuinely reported sat.
        assert res.result_for(res.winner).status == STATUS_SAT

    def test_losers_do_not_survive(self):
        """First-sat-wins: no loser is left in a running state."""
        res = synthesize_portfolio(
            mesh_problem(), default_portfolio(), backend="process",
            timeout=120,
        )
        assert res.ok
        non_winners = [
            sr for sr in res.strategy_results if sr.name != res.winner
        ]
        assert all(sr.status in TERMINAL - {None} for sr in non_winners)
        assert any(
            sr.status in (STATUS_CANCELLED, STATUS_SKIPPED, STATUS_SAT,
                          STATUS_UNSAT)
            for sr in non_winners
        )


class TestPortfolioUnsat:
    def unsat_problem(self) -> SynthesisProblem:
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

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_all_strategies_unsat(self, backend):
        strategies = [
            Strategy("routes-1", SynthesisOptions(mode=MODE_DEADLINE, routes=1)),
            Strategy("stages-2",
                     SynthesisOptions(mode=MODE_DEADLINE, routes=1, stages=2)),
        ]
        res = synthesize_portfolio(
            self.unsat_problem(), strategies, backend=backend, timeout=120
        )
        assert not res.ok
        assert res.winner is None and res.solution is None
        for sr in res.strategy_results:
            assert sr.status == STATUS_UNSAT


class TestPortfolioConfig:
    def test_duplicate_names_rejected(self):
        dup = [
            Strategy("same", SynthesisOptions(routes=1)),
            Strategy("same", SynthesisOptions(routes=2)),
        ]
        with pytest.raises(ValueError):
            synthesize_portfolio(mesh_problem(), dup)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            synthesize_portfolio(mesh_problem(), [])

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            synthesize_portfolio(
                mesh_problem(), small_portfolio(), backend="quantum"
            )

    def test_worker_errors_are_reported(self):
        """A strategy that cannot encode (stability without specs) errors
        out without sinking the race."""
        net = mesh_network(1)
        apps = [ControlApplication("a0", "S0", "C0", ms(10), None)]
        problem = SynthesisProblem(net, apps, FAST)
        strategies = [
            Strategy("needs-spec", SynthesisOptions(routes=1)),  # stability
            Strategy("deadline",
                     SynthesisOptions(mode=MODE_DEADLINE, routes=1)),
        ]
        res = synthesize_portfolio(problem, strategies, backend="serial",
                                   timeout=120)
        assert res.ok and res.winner == "deadline"
        assert res.result_for("needs-spec").status == STATUS_ERROR
        assert "EncodingError" in res.result_for("needs-spec").error
