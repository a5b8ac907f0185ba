"""Supervision policy and accounting shared by every worker scheduler.

Both schedulers over :class:`~repro.runtime.process.WorkerProcess` — the
portfolio race (N one-shot workers) and the synthesis service (N
persistent ones) — and their in-process twins read one policy and write
one counter vocabulary (``docs/robustness.md``, "Worker runtime"):

* :class:`SupervisionPolicy` — heartbeat cadence, stall timeout, the
  capped crash-retry backoff (doubling from ``backoff_base``), and the
  SIGTERM grace of :meth:`WorkerProcess.reap`.
* :func:`heartbeat_frame` / :func:`valid_heartbeat` — the liveness frame
  a solve emits from the engine's ``on_restart`` hook (throttled by
  :func:`~repro.runtime.harness.supervised_solve`) and its validation at
  the parent boundary.  Every supervised solve runs on the native
  engine, so every worker has that hook.
* :class:`Supervisor` — per-strategy and total counts of crashes,
  stalls, retries, heartbeats, quarantined frames and degradations,
  and the one retry rule, :meth:`Supervisor.attempt_died`: count the
  death, then grant a backoff delay while :data:`MAX_CRASH_RETRIES` and
  the deadline allow, else count the budget as exhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fieldcheck import check_fields
from .frames import KIND_HEARTBEAT

#: Counter keys every supervisor report carries (zero-filled).
_COUNTERS = (
    "crashes",              # attempts that died without a result
    "stalls_detected",      # attempts killed for missed heartbeats
    "crash_retries",        # relaunches granted after a crash/stall
    "crash_budget_exhausted",  # strategies that ran out of retries
    "heartbeats_seen",
    "quarantined_artifacts",  # frames rejected at a validation boundary
    "degradations",         # strategies re-routed to the serial backend
)

#: Relaunches one attempt may be granted after it crashes or stalls,
#: in the race and in the service alike.
MAX_CRASH_RETRIES = 2

#: Heartbeat counters forwarded into per-strategy statistics (the last
#: value seen wins — it is a progress gauge, not an accumulator).
_HEARTBEAT_STATS = ("conflicts", "propagations")


@dataclass(frozen=True)
class SupervisionPolicy:
    """Tunables of the supervision layer (all deterministic).

    ``stall_timeout`` is None by default: heartbeats are still emitted
    and counted, but nobody is killed for silence — restart boundaries
    are conflict-driven, so a legitimately propagation-heavy solve can
    be quiet for a long time.  Chaos tests (and latency-sensitive
    services) opt in with a timeout matched to their workload.  Every
    field is a finite number of seconds (``ValueError``).
    """

    heartbeat_interval: float = field(default=0.2, metadata={"ge": 0})  # min s between beats
    stall_timeout: Optional[float] = field(default=None, metadata={"gt": 0})  # None: no stalls
    backoff_base: float = field(default=0.05, metadata={"ge": 0})  # first retry delay
    backoff_cap: float = field(default=2.0, metadata={"ge": 0})  # ceiling on any delay
    kill_grace: float = field(default=1.0, metadata={"ge": 0})  # terminate -> join -> kill

    def __post_init__(self) -> None:
        check_fields(self)

    def backoff(self, retry_no: int) -> float:
        """Delay before retry ``retry_no`` (1-based): doubling, capped."""
        if retry_no < 1:
            raise ValueError("retry_no is 1-based")
        return min(self.backoff_cap, self.backoff_base * 2 ** (retry_no - 1))

    def backoff_schedule(self, retries: int) -> List[float]:
        """The full deterministic delay schedule for ``retries`` retries."""
        return [self.backoff(i + 1) for i in range(retries)]


def heartbeat_frame(strategy: str, statistics: Dict[str, int],
                    phase: str = "solve") -> dict:
    """A worker-side heartbeat frame carrying progress counters."""
    frame = {"kind": KIND_HEARTBEAT, "strategy": strategy, "phase": phase}
    for key in _HEARTBEAT_STATS:
        frame[key] = int(statistics.get(key, 0))
    return frame


def valid_heartbeat(frame) -> bool:
    """Pool-boundary validation of a heartbeat frame (quarantine gate)."""
    if not isinstance(frame, dict) or frame.get("kind") != KIND_HEARTBEAT:
        return False
    return all(isinstance(frame.get(key), int) for key in _HEARTBEAT_STATS)


class Supervisor:
    """Parent-side accounting of one scheduler's supervision events.

    Schedulers report what they saw (heartbeats, quarantined frames,
    degradations) and ask :meth:`attempt_died` what to do about a dead
    attempt, so the race's two backends and the service share one
    counter vocabulary and one retry rule.
    """

    def __init__(self, policy: Optional[SupervisionPolicy] = None) -> None:
        self.policy = policy or SupervisionPolicy()
        self.counters: Dict[str, int] = {key: 0 for key in _COUNTERS}
        self._per_strategy: Dict[str, Dict[str, int]] = {}
        self._heartbeat_gauges: Dict[str, Dict[str, int]] = {}

    def _bump(self, strategy: str, key: str, n: int = 1) -> None:
        self.counters[key] += n
        bucket = self._per_strategy.setdefault(strategy, {})
        bucket[key] = bucket.get(key, 0) + n

    # -- event reports ---------------------------------------------------

    def note_heartbeat(self, strategy: str, frame: dict) -> bool:
        """Record one heartbeat; False (and quarantine) when malformed."""
        if not valid_heartbeat(frame):
            self.note_quarantined(strategy)
            return False
        self._bump(strategy, "heartbeats_seen")
        self._heartbeat_gauges[strategy] = {
            key: frame[key] for key in _HEARTBEAT_STATS
        }
        return True

    def note_crash(self, strategy: str) -> None:
        self._bump(strategy, "crashes")

    def note_stall(self, strategy: str) -> None:
        self._bump(strategy, "stalls_detected")

    def note_quarantined(self, strategy: str) -> None:
        self._bump(strategy, "quarantined_artifacts")

    def note_degraded(self, strategy: str) -> None:
        self._bump(strategy, "degradations")

    # -- the retry rule --------------------------------------------------

    def attempt_died(self, strategy: str, retries_used: int, *,
                     stalled: bool = False,
                     deadline: Optional[float] = None) -> Optional[float]:
        """Count a dead attempt and decide whether it is retried.

        Returns the backoff delay (seconds, clamped to ``deadline``, an
        absolute ``perf_counter`` time) to wait before relaunching, or
        None when the retry budget is spent or the deadline has passed
        — counted as ``crash_budget_exhausted``; what exhaustion means
        (degrade, error out) is the scheduler's call.
        """
        if stalled:
            self.note_stall(strategy)
        else:
            self.note_crash(strategy)
        now = time.perf_counter()
        if retries_used < MAX_CRASH_RETRIES and (deadline is None
                                                 or now < deadline):
            self._bump(strategy, "crash_retries")
            delay = self.policy.backoff(retries_used + 1)
            return delay if deadline is None else min(delay, deadline - now)
        self._bump(strategy, "crash_budget_exhausted")
        return None

    # -- reports ---------------------------------------------------------

    def strategy_statistics(self, strategy: str) -> Dict[str, int]:
        """Supervision counters to merge into a StrategyResult.

        Keys are only emitted when nonzero, so undisturbed strategies
        keep their statistics dict free of supervision noise; heartbeat
        progress gauges are prefixed ``heartbeat_``.
        """
        stats = {key: value
                 for key, value in self._per_strategy.get(strategy, {}).items()
                 if value}
        for key, value in self._heartbeat_gauges.get(strategy, {}).items():
            stats[f"heartbeat_{key}"] = value
        return stats

    @property
    def statistics(self) -> Dict[str, int]:
        return dict(self.counters)
