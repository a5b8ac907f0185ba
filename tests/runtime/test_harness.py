"""The solve side: one interrupt pump, one supervised-solve harness."""

import threading
import time

import pytest

from repro.api import Session
from repro.core.synthesizer import SynthesisOptions
from repro.eval.workloads import random_problem, sharing_problem
from repro.runtime.frames import KIND_HEARTBEAT
from repro.runtime.harness import InterruptPump, supervised_solve
from repro.smt import Bool, Not, Or


class FakeSession:
    """Counts interrupts; optionally claims not to be interruptible."""

    def __init__(self, can_interrupt=True):
        self.can_interrupt = can_interrupt
        self.interrupts = 0

    def interrupt(self):
        self.interrupts += 1


def pump_threads():
    return [t for t in threading.enumerate() if t.name == "interrupt-pump"]


def wait_until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate() and time.perf_counter() < deadline:
        time.sleep(0.005)
    return predicate()


def pigeonhole_session(tag, pigeons=9):
    """A propositional instance far beyond any test's patience."""
    holes = pigeons - 1
    session = Session()
    at = [[Bool(f"{tag}_p{p}h{h}") for h in range(holes)]
          for p in range(pigeons)]
    for row in at:
        session.add(Or(*row))
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                session.add(Or(Not(at[p][h]), Not(at[q][h])))
    return session


class TestInterruptPump:
    @pytest.mark.parametrize("use_deadline,use_cancel", [
        (True, False), (False, True), (True, True)])
    def test_fires_for_deadline_cancel_flag_or_both(self, use_deadline,
                                                    use_cancel):
        session = FakeSession()
        cancel = threading.Event()
        deadline = time.perf_counter() + 0.1 if use_deadline else None
        with InterruptPump(session, deadline,
                           cancel.is_set if use_cancel else None,
                           interval=0.01):
            time.sleep(0.03)
            assert session.interrupts == 0      # nothing is due yet
            cancel.set()
            assert wait_until(lambda: session.interrupts >= 3)
        assert pump_threads() == []             # joined on exit
        settled = session.interrupts
        time.sleep(0.05)
        assert session.interrupts == settled    # and stopped firing

    def test_passed_deadline_fires_immediately(self):
        session = FakeSession()
        with InterruptPump(session, time.perf_counter() - 1.0):
            assert wait_until(lambda: session.interrupts >= 1, 1.0)

    def test_no_thread_without_a_deadline_or_a_cancel_source(self):
        with InterruptPump(FakeSession()):
            assert pump_threads() == []

    def test_no_thread_for_a_session_that_cannot_be_interrupted(self):
        session = FakeSession(can_interrupt=False)
        with InterruptPump(session, time.perf_counter() - 1.0,
                           lambda: True):
            time.sleep(0.05)
            assert pump_threads() == []
        assert session.interrupts == 0

    def test_refires_across_consecutive_checks_of_one_session(self):
        # One interrupt() only aborts the current check (the flag is
        # cleared at every check() entry): each of these would run for
        # minutes if the pump fired once and fell silent.
        session = pigeonhole_session("pump")
        t0 = time.perf_counter()
        with InterruptPump(session, time.perf_counter() + 0.05):
            outcomes = [session.check() for _ in range(3)]
        assert all(outcome == "unknown" for outcome in outcomes)
        assert time.perf_counter() - t0 < 20.0
        assert pump_threads() == []


#: A conflict budget this small aborts the first check of
#: ``random_problem(0, n_apps=3)`` (one route per app, so no probe check
#: runs first), and a budget abort flushes through ``on_restart`` — a
#: restart boundary on demand.
BUDGETED = SynthesisOptions(max_conflicts=2, routes=1)


class TestSupervisedSolve:
    def test_native_solve_is_tagged_hooked_and_published(self):
        beats, restarts, sessions = [], [], []
        result, engine = supervised_solve(
            random_problem(0, n_apps=3), BUDGETED, "tagged",
            heartbeat=beats.append, heartbeat_interval=0.0,
            restart_hooks=(restarts.append,), on_session=sessions.append)
        assert engine is not None
        assert engine.backend_name == "native[tagged]"
        assert result.status == "unknown"
        assert restarts and all(eng is engine for eng in restarts)
        assert beats and all(frame["kind"] == KIND_HEARTBEAT
                             and frame["strategy"] == "tagged"
                             for frame in beats)
        assert len(sessions) == 2 and sessions[1] is None
        assert sessions[0].backend.engine is engine

    def test_heartbeats_are_throttled_from_the_start_of_the_solve(self):
        beats, restarts = [], []
        supervised_solve(random_problem(0, n_apps=3), BUDGETED, "quiet",
                         heartbeat=beats.append, heartbeat_interval=3600.0,
                         restart_hooks=(restarts.append,))
        assert restarts and beats == []

    def test_other_backends_get_a_session_but_no_engine(self):
        sessions = []
        result, engine = supervised_solve(
            sharing_problem(), SynthesisOptions(backend="serialization"),
            "ser", deadline=time.perf_counter() + 60.0,
            cancelled=lambda: False, on_session=sessions.append)
        assert engine is None
        assert result.status == "sat"
        assert sessions[0] is not None and not sessions[0].can_interrupt
        assert sessions[1] is None

    def test_session_is_unpublished_when_the_solve_raises(self):
        sessions = []
        with pytest.raises(Exception):
            supervised_solve(object(), SynthesisOptions(), "broken",
                             on_session=sessions.append)
        assert len(sessions) == 2 and sessions[1] is None
