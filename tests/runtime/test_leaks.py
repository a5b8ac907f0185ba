"""Neither zombies, nor file descriptors, nor cyclic garbage, nor
threads — counted, not just claimed.

``docs/robustness.md`` promises that reaped workers leave nothing
behind; the fault suites only check ``active_children()``.  The first
test counts the process's open descriptors around every way a worker
ends.  One more checks that a bounded solve runs no thread beside it.
The rest hold the in-process half of the promise
(``docs/perf.md``, "Memory lifecycle and cold start"): with the cycle
collector off, every solver engine a solve builds is freed by reference
counting the moment its last reference goes, and interned variables do
not outlive the sessions that used them.
"""

import collections
import gc
import multiprocessing
import os
import signal
import threading
import time
import weakref

import pytest

from repro.api import Session
from repro.core import Encoder
from repro.core.synthesizer import SynthesisOptions, refine, solve
from repro.eval.workloads import (bottleneck_problem, bottleneck_repair_problem,
                                  gm_case_study, sharing_problem,
                                  slow_funnel_problem)
from repro.portfolio import (FaultPlan, FaultSpec, Strategy,
                             SupervisionPolicy, synthesize_portfolio)
from repro.runtime.faults import CRASH
from repro.runtime.process import WorkerProcess
from repro.service import ServiceClient, ServicePolicy, SynthesisServer
from repro.service.workers import InlineWorker
from repro.smt import Bool, Not, Or, Real
from repro.smt.solver import SolverEngine
from repro.smt.terms import BoolVar, RealVar

from ..service.helpers import family_problem, run

FD_DIR = "/proc/self/fd"

FAST = SupervisionPolicy(heartbeat_interval=0.02, stall_timeout=0.6,
                         backoff_base=0.01, backoff_cap=0.05,
                         kill_grace=0.2)


def open_fds() -> int:
    return len(os.listdir(FD_DIR))


def _exits(conn):
    conn.close()


def _ignores_sigterm(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("armed")
    while True:
        time.sleep(0.05)


def spawn_reap_cycles() -> list:
    """The reaped handles, still referenced: a descriptor that only the
    garbage collector would close counts as leaked."""
    reaped = []
    for cycle in range(20):
        stubborn = cycle == 7
        worker = WorkerProcess(_ignores_sigterm if stubborn else _exits,
                               name=f"leak-{cycle}", duplex=cycle % 2 == 0,
                               kill_grace=FAST.kill_grace)
        if stubborn:
            assert list(worker.drain(5.0))      # SIGTERM is ignored by now
        worker.reap(linger=cycle % 3 == 0)
        assert not worker.alive
        reaped.append(worker)
    return reaped


def chaos_race() -> None:
    strategies = [Strategy("monolithic", SynthesisOptions()),
                  Strategy("routes-1", SynthesisOptions(routes=1)),
                  Strategy("routes-2", SynthesisOptions(routes=2))]
    plan = FaultPlan.chaos(seed=7, strategy_names=[s.name for s in strategies],
                           crashes=1, hangs=1, corruptions=1, drops=1)
    result = synthesize_portfolio(sharing_problem(), strategies, timeout=60,
                                  supervision=FAST, fault_plan=plan)
    assert result.status == "sat"
    assert result.supervision_statistics["crash_retries"] >= 1


def sigkilled_service_request() -> None:
    async def body():
        plan = FaultPlan([FaultSpec(CRASH, strategy="victim", attempt=1)])
        policy = ServicePolicy(workers=1, worker_mode="process",
                               supervision=FAST)
        async with SynthesisServer(policy=policy, fault_plan=plan) as server:
            reply = await ServiceClient(server).solve(
                family_problem([0, 1]), deadline=60.0, request_id="victim")
            assert reply["type"] == "result" and reply["attempts"] == 2
            assert server.stats()["workers"][0]["restarts"] == 1
    run(body())


@pytest.mark.skipif(not os.path.isdir(FD_DIR),
                    reason="needs /proc/self/fd to count descriptors")
def test_every_way_a_worker_ends_gives_its_descriptors_back():
    before = open_fds()
    reaped = spawn_reap_cycles()
    assert open_fds() == before
    del reaped
    chaos_race()
    assert open_fds() == before
    sigkilled_service_request()
    assert open_fds() == before
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.isdir(FD_DIR),
                    reason="needs /proc/self/fd to count descriptors")
def test_a_worker_that_fails_to_spawn_gives_its_descriptors_back(monkeypatch):
    def refuse(self):
        raise OSError("no process slot left")
    monkeypatch.setattr(multiprocessing.get_context().Process, "start", refuse)
    before = open_fds()
    with pytest.raises(OSError) as excinfo:
        WorkerProcess(_exits, name="unborn", duplex=True,
                      kill_grace=FAST.kill_grace)
    # Counted while the traceback still holds the constructor's frame: a
    # pipe end it forgot to close would otherwise be closed by
    # ``Connection.__del__`` the moment that frame is freed.
    assert open_fds() == before, excinfo.value
    assert multiprocessing.active_children() == []


def test_a_deadline_or_a_cancel_source_starts_no_thread(monkeypatch):
    """Stopping a solve is a predicate the engine polls: inline service
    requests with deadlines (met and missed) and a serial race with a
    timeout see the same threads at every check as before them."""
    seen = []
    check = SolverEngine.check

    def recording_check(self, *assumptions):
        seen.append(set(threading.enumerate()))
        return check(self, *assumptions)

    monkeypatch.setattr(SolverEngine, "check", recording_check)
    before = set(threading.enumerate())
    worker = InlineWorker()
    for i in range(3):
        payload = worker.solve(f"threads-{i}", gm_case_study(2),
                               SynthesisOptions(routes=2, stages=2),
                               deadline=60.0)
        assert payload["status"] == "sat"
    payload = worker.solve("threads-late", slow_funnel_problem(),
                           SynthesisOptions(routes=2), deadline=0.2)
    assert payload["deadline_exceeded"]
    strategies = [Strategy("routes-1", SynthesisOptions(routes=1)),
                  Strategy("routes-2", SynthesisOptions(routes=2))]
    result = synthesize_portfolio(sharing_problem(), strategies,
                                  backend="serial", timeout=60)
    assert result.status == "sat"
    assert seen and all(threads == before for threads in seen)
    assert set(threading.enumerate()) == before


# ---------------------------------------------------------------------------
# Memory: a finished solve is freed by reference counting
# ---------------------------------------------------------------------------


@pytest.fixture
def engines(monkeypatch):
    """Weak references to every :class:`SolverEngine` built meanwhile."""
    refs = []
    init = SolverEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(SolverEngine, "__init__", recording_init)
    return refs


def cyclic_repro_garbage() -> collections.Counter:
    """Instances of ``repro`` types that only the cycle collector frees."""
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage if type(o).__module__.startswith("repro."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def staged_solve() -> None:
    result = solve(gm_case_study(3), SynthesisOptions(routes=3, stages=5))
    assert result.status == "sat"


def repaired_solve() -> None:
    result = solve(bottleneck_repair_problem(),
                   SynthesisOptions(routes=2, stages=2, repair=True))
    assert result.status == "sat"
    assert result.statistics["stage_repairs"] >= 1


def session_episode(backend: str):
    def episode() -> None:
        session = Session(backend)
        x, y = Real("leak_x"), Real("leak_y")
        a, b = Bool("leak_a"), Bool("leak_b")
        session.add(Or(a, x - y >= 3))
        session.push()
        session.add(y - x >= 1, Or(Not(a), b))
        outcome = session.check(Not(b), a)
        assert outcome == "unsat" and outcome.unsat_core
        session.pop()
        assert session.check(a) == "sat"
    return episode


def inline_request() -> None:
    worker = InlineWorker()
    payload = worker.solve("leak-1", gm_case_study(2),
                           SynthesisOptions(routes=2, stages=2))
    assert payload["status"] == "sat"


def shared_serial_race() -> None:
    strategies = [Strategy("routes-1", SynthesisOptions(routes=1)),
                  Strategy("routes-2", SynthesisOptions(routes=2))]
    result = synthesize_portfolio(sharing_problem(), strategies,
                                  backend="serial", share_knowledge=True)
    assert result.status == "sat"


LIFECYCLES = {
    "staged-solve": staged_solve,
    "repair": repaired_solve,
    "native-session": session_episode("native"),
    "serialization-session": session_episode("serialization"),
    "inline-worker": inline_request,
    "serial-race-sharing": shared_serial_race,
}


@pytest.mark.parametrize("lifecycle", sorted(LIFECYCLES))
def test_a_finished_solve_is_freed_by_reference_counting(lifecycle, engines):
    """Each lifecycle drops its last reference on return; with the cycle
    collector off, every engine it built must already be gone then."""
    gc.collect()
    gc.disable()
    try:
        LIFECYCLES[lifecycle]()
        assert engines, "the scenario built no engine"
        assert [ref() for ref in engines] == [None] * len(engines)
        assert cyclic_repro_garbage() == {}
    finally:
        gc.enable()


def test_interned_variables_live_only_as_long_as_their_users():
    bools, reals = len(BoolVar._registry), len(RealVar._registry)
    for _ in range(5000):
        session = Session()
        session.push()
        session.pop()
    del session
    assert len(BoolVar._registry) <= bools
    problem = bottleneck_problem(2)
    for _ in range(50):   # each encoder takes a fresh namespace
        session = Session()
        encoder = Encoder(problem, session, route_limit=1)
        for message in problem.messages:
            encoder.encode_message(message)
        assert refine(session, encoder) == "sat"
    del session, encoder
    assert len(BoolVar._registry) <= bools
    assert len(RealVar._registry) <= reals
    # Identity while alive is unchanged.
    kept = Bool("leak_kept")
    assert Bool("leak_kept") is kept and BoolVar._registry["leak_kept"] is kept
