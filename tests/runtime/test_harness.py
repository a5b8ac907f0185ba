"""The solve side: one supervised-solve harness, bounded by a stop
predicate the engine polls."""

import time

import pytest

from repro.core import synthesizer as synth
from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import (gm_case_study, random_problem,
                                  slow_funnel_problem)
from repro.runtime.frames import KIND_HEARTBEAT
from repro.runtime.harness import supervised_solve
from repro.smt import Bool, Not, Or
from repro.smt.solver import SolverEngine


def pigeonhole_engine(tag, pigeons=9):
    """A propositional instance far beyond any test's patience."""
    holes = pigeons - 1
    engine = SolverEngine()
    at = [[Bool(f"{tag}_p{p}h{h}") for h in range(holes)]
          for p in range(pigeons)]
    for row in at:
        engine.add(Or(*row))
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                engine.add(Or(Not(at[p][h]), Not(at[q][h])))
    return engine


class TestStop:
    @pytest.mark.parametrize("use_deadline,use_cancel", [
        (True, False), (False, True), (True, True)])
    def test_stops_for_deadline_cancel_flag_or_both(self, use_deadline,
                                                    use_cancel):
        # The funnel's refutation takes ~10 s; a stop due 0.2 s in must
        # end it long before that.
        due = time.perf_counter() + 0.2
        t0 = time.perf_counter()
        result, _ = supervised_solve(
            slow_funnel_problem(), SynthesisOptions(routes=2), "bounded",
            deadline=due if use_deadline else None,
            cancelled=(lambda: time.perf_counter() >= due)
            if use_cancel else None)
        assert result.status == "unknown"
        assert time.perf_counter() - t0 < 5.0

    def test_passed_deadline_stops_each_stage_at_once(self):
        seen = []
        t0 = time.perf_counter()
        result, engine = supervised_solve(
            gm_case_study(6), SynthesisOptions(routes=2, stages=3), "late",
            deadline=time.perf_counter() - 1.0,
            restart_hooks=(lambda eng: seen.append(eng.statistics),))
        assert result.status == "unknown"
        assert time.perf_counter() - t0 < 5.0
        # Each check ended at its first poll, before any decision, and
        # flushed once through the restart hook on the way out.
        assert seen and engine.statistics["decisions"] == 0

    def test_no_predicate_without_a_deadline_or_a_cancel_source(self):
        stops = []
        result, engine = supervised_solve(
            random_problem(0, n_apps=3), BUDGETED, "unwatched",
            restart_hooks=(lambda eng: stops.append(eng.stop),))
        assert result.status == "unknown"       # the budget, not a stop
        assert stops and stops == [None] * len(stops)

    def test_predicate_is_held_only_for_the_solve(self):
        stops = []
        _, engine = supervised_solve(
            random_problem(0, n_apps=3), BUDGETED, "watched",
            deadline=time.perf_counter() + 60.0, cancelled=lambda: False,
            restart_hooks=(lambda eng: stops.append(eng.stop),))
        assert stops and all(callable(stop) for stop in stops)
        assert engine.stop is None

    def test_stops_every_check_of_one_engine(self):
        # There is no flag a check clears on entry: each check polls the
        # predicate itself, so each of these ends at once.
        engine = pigeonhole_engine("stop")
        engine.stop = lambda: True
        t0 = time.perf_counter()
        outcomes = [engine.check() for _ in range(3)]
        assert all(outcome == "unknown" for outcome in outcomes)
        assert time.perf_counter() - t0 < 20.0


#: A conflict budget this small aborts the first check of
#: ``random_problem(0, n_apps=3)`` (one route per app, so no probe check
#: runs first), and a budget abort flushes through ``on_restart`` — a
#: restart boundary on demand.
BUDGETED = SynthesisOptions(max_conflicts=2, routes=1)


class TestSupervisedSolve:
    def test_native_solve_is_tagged_and_hooked(self):
        beats, restarts = [], []
        result, engine = supervised_solve(
            random_problem(0, n_apps=3), BUDGETED, "tagged",
            heartbeat=beats.append, heartbeat_interval=0.0,
            restart_hooks=(restarts.append,))
        assert engine is not None
        assert engine.backend_name == "native[tagged]"
        assert result.status == "unknown"
        assert restarts and all(eng is engine for eng in restarts)
        assert beats and all(frame["kind"] == KIND_HEARTBEAT
                             and frame["strategy"] == "tagged"
                             for frame in beats)

    def test_heartbeats_are_throttled_from_the_start_of_the_solve(self):
        beats, restarts = [], []
        supervised_solve(random_problem(0, n_apps=3), BUDGETED, "quiet",
                         heartbeat=beats.append, heartbeat_interval=3600.0,
                         restart_hooks=(restarts.append,))
        assert restarts and beats == []

    def test_predicate_is_withdrawn_when_the_solve_raises(self, monkeypatch):
        opened = []
        open_session = synth.open_session

        def recording(options):
            session, engine = open_session(options)
            opened.append(engine)
            return session, engine

        monkeypatch.setattr(synth, "open_session", recording)
        with pytest.raises(Exception):
            supervised_solve(object(), SynthesisOptions(), "broken",
                             deadline=time.perf_counter() + 60.0)
        assert len(opened) == 1 and opened[0].stop is None
