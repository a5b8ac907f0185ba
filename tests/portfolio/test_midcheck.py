"""Mid-check clause export: restart flushes and unit round-trips.

PR 4 gave portfolio workers terminal clause export (ship the learnt DB
with the final verdict).  These tests cover the paths added on top: the
``on_restart`` hook that flushes exportable clauses from *inside* a
check — so a worker killed mid-search still contributes — and root-level
(level-0) facts exported as unit clauses, which the learned-clause
export cannot see because unit learnts live on the trail, not in the DB.
"""

from fractions import Fraction

from repro.core.synthesizer import SynthesisOptions
from repro.eval import workloads
from repro.portfolio import Strategy, synthesize_portfolio
from repro.runtime.knowledge import (
    KnowledgePool,
    export_knowledge,
    schedule_vocabulary,
)
from repro.smt import Bool, Or
from repro.smt.solver import SolverEngine


def _vocab_bool(name_suffix: str):
    """A Boolean inside the cross-strategy stable vocabulary."""
    return Bool(f"ns/R[{name_suffix}]")


class TestUnitExport:
    def test_root_facts_export_as_unit_artifacts(self):
        engine = SolverEngine()
        x, y = _vocab_bool("m0][0"), _vocab_bool("m1][0")
        engine.add(x)                  # root-level fact
        engine.add(Or(x, y))           # non-unit, irrelevant here
        assert engine.check().name == "sat"
        units = engine.export_unit_clauses(vocabulary=schedule_vocabulary)
        assert len(units) == 1
        assert len(units[0]) == 1      # serialized as a 1-tuple

    def test_vocabulary_excludes_stage_guards(self):
        engine = SolverEngine()
        guard = Bool("ns/R[m0][0]!freeze")   # "!" marks a solver-local var
        engine.add(guard)
        assert engine.check().name == "sat"
        assert engine.export_unit_clauses(
            vocabulary=schedule_vocabulary) == []

    def test_units_round_trip_through_the_pool(self):
        exporter = SolverEngine()
        x, y = _vocab_bool("m0][0"), _vocab_bool("m1][0")
        exporter.add(x, Or(x, y))
        assert exporter.check().name == "sat"

        options = SynthesisOptions(routes=1)
        pool = KnowledgePool()
        assert pool.absorb(export_knowledge(options, exporter, midcheck=True))
        assert pool.statistics["midcheck_clauses_pooled"] >= 1

        seed = pool.seed_for(options)
        assert seed
        importer = SolverEngine()
        # Without the unit, phase saving picks x=False (y carries Or).
        importer.add(Or(x, y))
        installed = sum(importer.import_clauses(k.clauses) for k in seed)
        assert installed >= 1
        assert importer.clauses_imported == installed
        assert importer.check().name == "sat"
        assert importer.model().eval_bool(x) is True

    def test_incremental_strategies_never_export_midcheck(self):
        engine = SolverEngine()
        engine.add(_vocab_bool("m0][0"))
        assert engine.check().name == "sat"
        staged = SynthesisOptions(routes=1, stages=3)
        assert not export_knowledge(staged, engine, midcheck=True)

    def test_restart_artifact_is_tagged_midcheck(self):
        engine = SolverEngine()
        engine.add(_vocab_bool("m0][0"))
        assert engine.check().name == "sat"
        options = SynthesisOptions(routes=1)
        knowledge = export_knowledge(options, engine, midcheck=True)
        assert knowledge.midcheck and knowledge.clauses
        assert knowledge.route_veto == ()
        assert knowledge.signature == options.signature


class TestMidCheckRace:
    def test_budget_killed_worker_seeds_the_winner(self):
        """The bench/CI scenario, end to end on the serial backend.

        Seven apps on the 8 ms funnel: the direct link holds five, so
        the routes-1 worker faces a pigeonhole refutation, hits
        ``max_conflicts`` inside it and answers unknown — but its
        restart-boundary exports must reach the pool, and the
        monolithic winner must measurably import them.
        """
        problem = workloads.bottleneck_problem(7, period=Fraction(8, 1000))
        strategies = [
            Strategy("routes-1", SynthesisOptions(
                routes=1, max_conflicts=50)),
            Strategy("monolithic", SynthesisOptions(routes=None)),
        ]
        res = synthesize_portfolio(problem, strategies, backend="serial",
                                   share_knowledge=True)
        by_name = {sr.name: sr for sr in res.strategy_results}
        assert by_name["routes-1"].status == "unknown"
        assert by_name["monolithic"].status == "sat"
        assert res.status == "sat" and res.winner == "monolithic"
        assert res.pool_statistics["midcheck_clauses_pooled"] > 0
        assert by_name["monolithic"].statistics.get("clauses_imported", 0) > 0

    def test_unknown_is_never_a_race_verdict(self):
        """A budget-killed complete strategy must not decide the race."""
        problem = workloads.bottleneck_problem(8, period=Fraction(7, 1000))
        strategies = [
            Strategy("monolithic", SynthesisOptions(
                routes=None, max_conflicts=50)),
        ]
        res = synthesize_portfolio(problem, strategies, backend="serial",
                                   share_knowledge=True)
        assert res.strategy_results[0].status == "unknown"
        assert res.status == "unknown"
        assert res.winner is None
