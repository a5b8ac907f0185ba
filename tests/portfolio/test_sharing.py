"""Cross-worker knowledge sharing: determinism, soundness, and effect.

The serial backend runs strategies in order with the pool flowing from
each finished run into the next, so every assertion here is exact (no
racing nondeterminism): identical statuses and models with sharing on
and off, strictly fewer summed conflicts with it on, and the sharing
counters visible in per-strategy statistics.
"""

from fractions import Fraction

import pytest

from repro.api import NativeBackend, Session
from repro.core import SynthesisOptions, collect_violations
from repro.core import synthesizer as synth
from repro.eval import workloads
from repro.portfolio import (
    STATUS_SAT,
    STATUS_UNSAT,
    KnowledgePool,
    Strategy,
    synthesize_portfolio,
)
from repro.runtime import knowledge as sharing
from repro.smt.terms import Bool, Real, deserialize_literal, serialize_literal


def sat_strategies():
    return [
        Strategy("routes-1", SynthesisOptions(routes=1)),
        Strategy("routes-2", SynthesisOptions(routes=2)),
    ]


def unsat_strategies():
    # Heuristics first so the race is still open when their artifacts
    # land; the complete strategy then proves unsat almost for free.
    return [
        Strategy("routes-2", SynthesisOptions(routes=2)),
        Strategy("routes-1", SynthesisOptions(routes=1)),
        Strategy("monolithic", SynthesisOptions(routes=None)),
    ]


def total_conflicts(res) -> int:
    return sum(sr.statistics.get("conflicts", 0)
               for sr in res.strategy_results)


def total_work(res) -> int:
    """Summed search effort: conflicts + decisions across strategies."""
    return sum(
        sr.statistics.get("conflicts", 0) + sr.statistics.get("decisions", 0)
        for sr in res.strategy_results
    )


class TestSharingDeterminism:
    def test_sat_race_identical_statuses_and_models(self):
        """Sharing must not change what is found — only how fast."""
        problem = workloads.sharing_problem()
        runs = {}
        for share in (False, True):
            res = synthesize_portfolio(problem, sat_strategies(),
                                       backend="serial",
                                       share_knowledge=share)
            assert res.status == STATUS_SAT and res.winner == "routes-2"
            assert collect_violations(res.solution) == []
            runs[share] = res
        assert (
            {sr.name: sr.status for sr in runs[False].strategy_results}
            == {sr.name: sr.status for sr in runs[True].strategy_results}
        )
        assert runs[False].solution.schedules == runs[True].solution.schedules

    def test_sat_race_prunes_conflicts(self):
        """The routes-1 veto provably prunes routes-2's search.

        The pruning shows up as strictly less summed search work
        (conflicts + decisions): the funnel's doomed all-shortest
        subtree dies by unit propagation instead of being explored.
        """
        # Three funnel apps: with four or more, the vetoed routes-2 run
        # re-probes its way to more work than the unshared one.
        problem = workloads.sharing_problem(n_apps=3)
        res_off = synthesize_portfolio(problem, sat_strategies(),
                                       backend="serial",
                                       share_knowledge=False)
        res_on = synthesize_portfolio(problem, sat_strategies(),
                                      backend="serial", share_knowledge=True)
        assert total_work(res_on) < total_work(res_off)
        assert total_conflicts(res_on) <= total_conflicts(res_off)
        seeded = res_on.result_for("routes-2").statistics
        assert seeded.get("route_vetoes_applied", 0) > 0
        assert res_on.pool_statistics["vetoes_pooled"] > 0
        # Sharing off keeps the pool (and the counters) entirely empty.
        assert res_off.pool_statistics == {}
        for sr in res_off.strategy_results:
            assert sr.statistics.get("clauses_imported", 0) == 0
            assert sr.statistics.get("route_vetoes_applied", 0) == 0

    def test_unsat_race_imports_clauses_and_keeps_verdict(self):
        """routes-2's proof seeds everyone; monolithic supplies unsat."""
        problem = workloads.sharing_unsat_problem()
        res_off = synthesize_portfolio(problem, unsat_strategies(),
                                       backend="serial",
                                       share_knowledge=False)
        res_on = synthesize_portfolio(problem, unsat_strategies(),
                                      backend="serial", share_knowledge=True)
        for res in (res_off, res_on):
            assert res.status == STATUS_UNSAT
            assert res.verdict_by == "monolithic"
            assert res.winner is None
        assert total_conflicts(res_on) < total_conflicts(res_off)
        imported = sum(sr.statistics.get("clauses_imported", 0)
                       for sr in res_on.strategy_results)
        assert imported > 0
        assert res_on.pool_statistics["clauses_pooled"] > 0

    def test_process_backend_with_sharing_stays_sound(self):
        problem = workloads.sharing_problem()
        res = synthesize_portfolio(problem, sat_strategies(),
                                   backend="process", timeout=120,
                                   share_knowledge=True)
        assert res.status == STATUS_SAT
        assert collect_violations(res.solution) == []


class TestClauseExchange:
    def test_literal_round_trip(self):
        x, y = Real("shx"), Real("shy")
        atom = (x - y <= Fraction(3, 2))
        for expr, negated in ((Bool("shb"), False), (atom, True)):
            ser = serialize_literal(expr, negated)
            back, neg = deserialize_literal(ser)
            assert neg == negated
            # Interning: the round trip lands on the identical SAT var.
            eng = synth.SolverEngine()
            eng.add(expr if not isinstance(expr, bool) else expr)
            assert eng._cnf.literal_for(back) == eng._cnf.literal_for(expr)

    def test_import_constrains_the_solver(self):
        a, b = Bool("sh_imp_a"), Bool("sh_imp_b")
        clause = (serialize_literal(a, True), serialize_literal(b, True))
        eng = synth.SolverEngine()
        eng.add(a)
        assert eng.import_clauses([clause]) == 1
        assert eng.clauses_imported == 1
        out = eng.check()
        assert out == "sat"
        assert eng.model()[b] is False  # ~a or ~b forces ~b under a

    def test_import_pad_weakens_the_clause(self):
        a, b, c = Bool("sh_pad_a"), Bool("sh_pad_b"), Bool("sh_pad_c")
        clause = (serialize_literal(a, True), serialize_literal(b, True))
        eng = synth.SolverEngine()
        eng.add(a, b)                      # contradicts the bare clause
        eng.import_clauses([clause], pad=[c])
        out = eng.check()
        assert out == "sat"
        assert eng.model()[c] is True      # the pad literal absorbed it

    def test_export_respects_vocabulary_and_caps(self):
        problem = workloads.sharing_unsat_problem()
        opts = SynthesisOptions(routes=2)
        eng = synth.SolverEngine()
        session = Session(backend=NativeBackend(engine=eng))
        result = synth.solve(problem, opts, session=session)
        assert result.status == "unsat"
        assert result.route_veto, "single-stage unsat must carry a veto"
        # A race unsat ships its veto and its clauses as one value...
        knowledge = sharing.export_knowledge(opts, eng, result.route_veto)
        assert knowledge.signature == opts.signature
        assert knowledge.route_veto == result.route_veto
        assert knowledge.clauses and not knowledge.midcheck
        # ...and the pool counts both as it did two separate frames.
        pool = KnowledgePool()
        assert pool.absorb(knowledge)
        assert pool.counters["clauses_pooled"] == len(set(knowledge.clauses))
        assert pool.counters["vetoes_pooled"] == 1
        assert pool.counters["midcheck_clauses_pooled"] == 0
        seed = pool.seed_for(SynthesisOptions(routes=1))
        assert [bool(k.clauses) for k in seed] == [True, False]
        assert seed[1].route_veto == result.route_veto
        clauses = eng.export_learned_clauses(
            vocabulary=sharing.schedule_vocabulary)
        assert clauses, "the funnel proof should learn shareable clauses"
        for clause in clauses:
            assert len(clause) <= sharing.MAX_CLAUSE_SIZE
            for ser in clause:
                expr, _ = deserialize_literal(ser)
                assert sharing.schedule_vocabulary(expr)
        assert len(eng.export_learned_clauses(max_count=1)) <= 1

    def test_incremental_runs_never_export_terminal_artifacts(self):
        """Heuristic-freeze consequences must stay private (soundness)."""
        problem = workloads.bottleneck_repair_problem()
        opts = SynthesisOptions(routes=2, stages=2)
        eng = synth.SolverEngine()
        session = Session(backend=NativeBackend(engine=eng))
        result = synth.solve(problem, opts, session=session)
        assert result.status == "unsat"  # the staged-heuristic trap
        assert result.route_veto is None
        assert not sharing.export_knowledge(opts, eng, result.route_veto)


class TestVetoSemantics:
    def test_veto_with_no_escape_is_entailed_false(self):
        """A stricter sibling inherits the proof outright."""
        problem = workloads.sharing_unsat_problem()
        pool = KnowledgePool()
        res = synthesize_portfolio(problem, unsat_strategies(),
                                   backend="serial", share_knowledge=True)
        seeded = res.result_for("routes-1").statistics
        assert seeded.get("route_vetoes_applied", 0) > 0
        # routes-1 inherited unsat by propagation, not by search.
        assert seeded.get("conflicts", 0) == 0
        assert res.result_for("routes-1").status == STATUS_UNSAT
