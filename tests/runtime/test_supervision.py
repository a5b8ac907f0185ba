"""`Supervisor.attempt_died`: the one retry rule, against the three
hand-written blocks it replaced (process race, serial race, service)."""

import time

import pytest

from repro.runtime import supervision
from repro.runtime.supervision import (MAX_CRASH_RETRIES, SupervisionPolicy,
                                       Supervisor)

POLICY = SupervisionPolicy(backoff_base=0.05, backoff_cap=0.3)
FAR = 3600.0


def expected_counters(retries_used, deadline_open, stalled):
    """What each replaced block counted for one dead attempt."""
    counters = dict.fromkeys(Supervisor(POLICY).counters, 0)
    counters["stalls_detected" if stalled else "crashes"] = 1
    if retries_used < MAX_CRASH_RETRIES and deadline_open:
        counters["crash_retries"] = 1
    else:
        counters["crash_budget_exhausted"] = 1
    return counters


@pytest.mark.parametrize("stalled", [False, True])
@pytest.mark.parametrize("deadline", [None, "open", "closed"])
@pytest.mark.parametrize("retries_used", [0, 1, 2])
def test_decision_table(retries_used, deadline, stalled):
    supervisor = Supervisor(POLICY)
    now = time.perf_counter()
    absolute = {None: None, "open": now + FAR, "closed": now - 1.0}[deadline]
    delay = supervisor.attempt_died("s", retries_used,
                                    stalled=stalled, deadline=absolute)
    retried = retries_used < MAX_CRASH_RETRIES and deadline != "closed"
    if retried:
        assert delay == POLICY.backoff(retries_used + 1)
    else:
        assert delay is None
    assert supervisor.statistics == expected_counters(
        retries_used, deadline != "closed", stalled)
    # Per-strategy statistics carry the same (nonzero) counts.
    assert supervisor.strategy_statistics("s") == {
        key: value for key, value in supervisor.statistics.items() if value}


def test_dying_until_exhausted_walks_the_backoff_schedule():
    supervisor = Supervisor(POLICY)
    delays, retries = [], 0
    while True:
        delay = supervisor.attempt_died("s", retries)
        if delay is None:
            break
        delays.append(delay)
        retries += 1
    assert delays == POLICY.backoff_schedule(2) == [0.05, 0.1]
    stats = supervisor.statistics
    assert (stats["crashes"], stats["crash_retries"],
            stats["crash_budget_exhausted"]) == (3, 2, 1)


def test_delay_never_outlasts_the_deadline():
    supervisor = Supervisor(SupervisionPolicy(backoff_base=30.0,
                                              backoff_cap=30.0))
    delay = supervisor.attempt_died("s", 0,
                                    deadline=time.perf_counter() + 0.5)
    assert 0.0 < delay <= 0.5


def test_a_zero_budget_is_exhausted_by_the_first_death(monkeypatch):
    monkeypatch.setattr(supervision, "MAX_CRASH_RETRIES", 0)
    supervisor = Supervisor(POLICY)
    assert supervisor.attempt_died("s", 0, stalled=True) is None
    assert supervisor.statistics["stalls_detected"] == 1
    assert supervisor.statistics["crash_budget_exhausted"] == 1
    assert supervisor.statistics["crash_retries"] == 0
