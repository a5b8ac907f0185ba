"""Deterministic fault injection for supervised workers.

The supervision machinery of the portfolio race and the service
(heartbeats, crash retry with backoff, artifact quarantine, degradation
to the serial backend — see ``docs/robustness.md``) guards against
workers that die rudely: SIGKILL/OOM kills, hangs that never reach a
restart boundary, corrupt artifact frames on the sharing pipe.  None of
those paths can be reached on demand by well-behaved code, so this
module makes them *injectable*: a :class:`FaultPlan` — a seeded,
deterministic set of :class:`FaultSpec` entries — rides into each worker
attempt via ``SynthesisOptions.faults``, and
:func:`repro.runtime.harness.supervised_solve` triggers the requested
failure at a reproducible point.

A leaf module: ``core.synthesizer`` takes the field's type from here, so
nothing in it may import :mod:`repro.core`.

Fault kinds
-----------

``crash``
    Die without sending a result once the engine has spent
    ``at_conflicts`` conflicts (0 = at attempt start, before solving).
    Process workers die by SIGKILL — no cleanup, no EOF courtesy, the
    parent sees only ``Process.exitcode``; in-process (serial) attempts
    raise :class:`InjectedCrash`, which the serial supervisor treats the
    same way.
``hang``
    Stop making progress (and stop heartbeating) at the same trigger
    point.  Process workers sleep forever until the parent's stall
    detector kills them; the serial backend cannot be stalled from
    within, so an in-process hang degenerates to a crash.
``corrupt``
    Replace the ``frame``-th knowledge frame this attempt emits with
    a structurally mangled copy — well-formed on the pipe, garbage at
    the pool boundary, where validation must quarantine it.
``slow_start``
    Sleep ``delay`` seconds before solving (exercises stall-detector
    grace: a slow worker must be distinguishable from a hung one by its
    eventual heartbeats).
``drop_result``
    Solve to completion, then exit cleanly *without* sending the result
    frame (a polite-looking death that still must be retried).

Triggers fire at engine restart boundaries (the PR-6 ``on_restart``
hook); a nonzero ``at_conflicts`` arms the engine's per-check conflict
budget so a boundary is guaranteed no later than the threshold.  A fault
whose trigger point is never reached (the solve finishes first) simply
does not fire — plans are conditional, which is what keeps the
"faults never change a verdict, only its cost" property testable.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..fieldcheck import check_fields

#: The injectable failure kinds.
CRASH = "crash"
HANG = "hang"
CORRUPT = "corrupt"
SLOW_START = "slow_start"
DROP_RESULT = "drop_result"

_KINDS = frozenset({CRASH, HANG, CORRUPT, SLOW_START, DROP_RESULT})

#: Matches every strategy / every attempt in a :class:`FaultSpec`.
ANY = "*"


class InjectedCrash(Exception):
    """An in-process injected worker death (serial-backend crash/hang).

    Raised from inside a solve; the serial race's supervisor catches it
    at the attempt boundary and routes it through the same
    retry-with-backoff path a process worker's SIGKILL takes.  It must
    never be swallowed into an ``error`` result payload.
    """

    def __init__(self, kind: str, spec: "FaultSpec") -> None:
        super().__init__(f"injected {kind} ({spec.strategy}@{spec.attempt})")
        self.kind = kind
        self.spec = spec


@dataclass(frozen=True)
class FaultSpec:
    """One injectable failure, targeted at a strategy attempt.

    ``strategy`` names the victim (:data:`ANY` matches all);
    ``attempt`` is the 1-based launch attempt to hit (0 = every
    attempt — use sparingly: a strategy crashed on *every* attempt
    exhausts any retry budget and ends in ``error``).
    """

    kind: str = field(metadata={"in": _KINDS})
    strategy: str = ANY
    attempt: int = field(default=1, metadata={"ge": 0})
    at_conflicts: int = field(default=0, metadata={"ge": 0})  # crash/hang (0: at start)
    delay: float = field(default=0.0, metadata={"ge": 0})  # slow_start sleep seconds
    frame: int = field(default=0, metadata={"ge": 0})  # corrupt: artifact frame index

    def __post_init__(self) -> None:
        check_fields(self)

    def matches(self, strategy: str, attempt: int) -> bool:
        if self.strategy not in (ANY, strategy):
            return False
        return self.attempt in (0, attempt)


@dataclass(frozen=True)
class WorkerFaults:
    """The faults one specific worker attempt must inject (picklable).

    Built by :meth:`FaultPlan.for_attempt` at launch time and carried
    into the worker inside ``SynthesisOptions.faults``.  ``harsh``
    selects the process-grade failure mode (SIGKILL / sleep-forever);
    in-process attempts raise :class:`InjectedCrash` instead.
    """

    strategy: str
    attempt: int
    harsh: bool
    crash: Optional[FaultSpec] = None
    hang: Optional[FaultSpec] = None
    slow_start: float = 0.0
    corrupt_frames: Tuple[int, ...] = ()
    drop_result: bool = False

    def __bool__(self) -> bool:
        return bool(self.crash or self.hang or self.slow_start
                    or self.corrupt_frames or self.drop_result)


class FaultPlan:
    """A deterministic, seeded collection of faults for one race.

    Passed to ``synthesize_portfolio(fault_plan=...)``; the engine asks
    :meth:`for_attempt` for each launch and ships the per-attempt bundle
    to the worker.  The plan itself is immutable and side-effect free,
    so re-running a race with the same plan, seed, strategies and
    problem injects byte-identical failures.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected a FaultSpec, got {spec!r}")

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_attempt(self, strategy: str, attempt: int,
                    harsh: bool) -> Optional[WorkerFaults]:
        """The fault bundle for launch ``attempt`` of ``strategy``.

        Returns None when no spec targets this attempt, so the launch
        path can skip the options rewrite entirely.
        """
        crash = hang = None
        slow = 0.0
        frames: List[int] = []
        drop = False
        for spec in self.specs:
            if not spec.matches(strategy, attempt):
                continue
            if spec.kind == CRASH and crash is None:
                crash = spec
            elif spec.kind == HANG and hang is None:
                hang = spec
            elif spec.kind == SLOW_START:
                slow += spec.delay
            elif spec.kind == CORRUPT:
                frames.append(spec.frame)
            elif spec.kind == DROP_RESULT:
                drop = True
        bundle = WorkerFaults(strategy=strategy, attempt=attempt, harsh=harsh,
                              crash=crash, hang=hang, slow_start=slow,
                              corrupt_frames=tuple(sorted(set(frames))),
                              drop_result=drop)
        return bundle if bundle else None

    @classmethod
    def chaos(cls, seed: int, strategy_names: Sequence[str],
              crashes: int = 1, hangs: int = 1, corruptions: int = 1,
              slow_starts: int = 0, drops: int = 0,
              max_conflict_trigger: int = 8,
              slow_start_delay: float = 0.05) -> "FaultPlan":
        """A seeded random plan that workers can always recover from.

        Every generated kill-type spec (crash/hang/drop) targets attempt
        1 or 2 of a pseudo-randomly chosen strategy, so two crashes of
        one strategy stay within
        :data:`~repro.runtime.supervision.MAX_CRASH_RETRIES` and races
        under a chaos plan keep their fault-free verdict (the property
        the fault-matrix tests check).
        """
        if not strategy_names:
            raise ValueError("chaos plan needs at least one strategy name")
        rng = random.Random(seed)
        specs: List[FaultSpec] = []
        kill_attempts = {name: set() for name in strategy_names}

        def place_kill(kind: str, **kw) -> None:
            victims = [n for n in strategy_names if len(kill_attempts[n]) < 2]
            if not victims:
                return
            name = rng.choice(victims)
            attempt = rng.choice(sorted({1, 2} - kill_attempts[name]))
            kill_attempts[name].add(attempt)
            specs.append(FaultSpec(kind, strategy=name, attempt=attempt, **kw))

        for _ in range(crashes):
            place_kill(CRASH,
                       at_conflicts=rng.randrange(max_conflict_trigger + 1))
        for _ in range(hangs):
            place_kill(HANG,
                       at_conflicts=rng.randrange(max_conflict_trigger + 1))
        for _ in range(drops):
            place_kill(DROP_RESULT)
        for _ in range(corruptions):
            specs.append(FaultSpec(CORRUPT, strategy=rng.choice(
                list(strategy_names)), attempt=0, frame=rng.randrange(2)))
        for _ in range(slow_starts):
            specs.append(FaultSpec(SLOW_START, strategy=rng.choice(
                list(strategy_names)), attempt=0, delay=slow_start_delay))
        return cls(specs, seed=seed)


# ---------------------------------------------------------------------------
# Application (called by the worker harness and the race's emit path)
# ---------------------------------------------------------------------------


def _die(faults: WorkerFaults, spec: FaultSpec, kind: str) -> None:
    """Execute a triggered crash/hang in the appropriate failure mode."""
    if faults.harsh:
        if kind == HANG:
            while True:             # parent's stall detector ends this
                time.sleep(3600)
        os.kill(os.getpid(), signal.SIGKILL)
    raise InjectedCrash(kind, spec)  # serial: a hang IS a crash


def apply_presolve(faults: WorkerFaults) -> None:
    """Inject the faults that fire before any solving starts."""
    if faults.slow_start:
        time.sleep(faults.slow_start)
    for kind, spec in ((CRASH, faults.crash), (HANG, faults.hang)):
        if spec is not None and spec.at_conflicts == 0:
            _die(faults, spec, kind)


def install_engine_triggers(engine, faults: WorkerFaults) -> None:
    """Arm conflict-threshold crash/hang triggers on a native engine.

    The trigger piggybacks on the engine's ``on_restart`` hook (wrapping
    whatever is already installed — the fault check runs *first*, so a
    crashing worker does not get a final knowledge flush it would not
    get from a real SIGKILL).  A nonzero threshold arms the engine's
    per-check conflict budget down to it: budget exhaustion fires
    ``on_restart`` before the check returns, so the trigger point is
    reached deterministically even on solves that never restart
    naturally — and because the trigger then fires, the tightened
    budget never surfaces as a spurious ``unknown``.
    """
    armed = [(kind, spec) for kind, spec in
             ((CRASH, faults.crash), (HANG, faults.hang))
             if spec is not None and spec.at_conflicts > 0]
    if not armed:
        return
    threshold = min(spec.at_conflicts for _, spec in armed)
    if engine.max_conflicts is None or engine.max_conflicts > threshold:
        engine.max_conflicts = threshold
    inner = engine.on_restart

    def trigger(eng) -> None:
        conflicts = eng.statistics.get("conflicts", 0)
        for kind, spec in armed:
            if conflicts >= spec.at_conflicts:
                _die(faults, spec, kind)
        if inner is not None:
            inner(eng)

    engine.on_restart = trigger


def corrupt_frame(knowledge):
    """A structurally mangled copy of a ``Knowledge`` value.

    The copy still pickles, but its payload fails pool-boundary
    validation: clause literals become bare strings and veto limits lose
    their counts — exactly the shapes :meth:`KnowledgePool.absorb` must
    quarantine rather than import.
    """
    return replace(knowledge, clauses=("corrupt-literal-stream",),
                   route_veto=(("corrupt-uid",),))


def wrap_emit(emit: Optional[Callable[[object], None]],
              faults: Optional[WorkerFaults]):
    """Wrap a knowledge-emit callback with the plan's frame corruption."""
    if emit is None or faults is None or not faults.corrupt_frames:
        return emit
    targets = set(faults.corrupt_frames)
    counter = [0]

    def corrupted(knowledge) -> None:
        index = counter[0]
        counter[0] += 1
        if index in targets:
            emit(corrupt_frame(knowledge))
        else:
            emit(knowledge)

    return corrupted
