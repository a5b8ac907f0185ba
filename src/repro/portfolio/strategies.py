"""Strategy catalogue for portfolio synthesis.

A *strategy* is just a named :class:`~repro.core.SynthesisOptions`
configuration.  The default portfolio covers the paper's three regimes:

* ``monolithic`` — the complete formulation (all simple routes, one SMT
  query); slowest but explores the whole solution space.
* ``routes-K`` for K in {1, 2, 3} — the route-subset heuristic
  (Sec. V-C-1); small K solves fast but may miss solvable instances.
* ``stages-S`` for S in {2, 4} — the incremental heuristic (Sec. V-C-2)
  over a modest route subset; scales with message count.

Racing them (see :mod:`repro.portfolio.engine`) gets the wall-clock time
of the *fastest* regime for each instance while keeping the coverage of
the complete one — exactly the trade-off the paper's Figs. 4-6 chart one
configuration at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.synthesizer import MODE_STABILITY, SynthesisOptions


@dataclass(frozen=True)
class Strategy:
    """One named synthesis configuration entered into the race.

    ``timeout`` bounds the strategy's *first attempt* in seconds (None =
    only the race's global deadline applies).  ``restarts`` is the budget
    schedule for further attempts: when an attempt times out while the
    race is undecided, the engine re-queues the strategy with the next
    budget from the schedule.  Short first budgets let a constrained
    worker pool probe every strategy quickly; the schedule revisits slow
    ones with growing budgets only if nothing has won yet — all attempts
    stay clamped to the global deadline (deadline-aware racing).

    ``max_crash_retries`` bounds a different failure mode: an attempt
    that *dies without reporting* (SIGKILL/OOM, a dropped result frame)
    or is killed for missed heartbeats is relaunched — re-seeded from
    the race's knowledge pool, after capped exponential backoff — up to
    this many times before the strategy is declared crash-exhausted and
    handed to the serial fallback (see ``docs/robustness.md``).
    """

    name: str
    options: SynthesisOptions
    timeout: Optional[float] = None
    restarts: Tuple[float, ...] = ()
    max_crash_retries: int = 2

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("strategy needs a non-empty name")
        if self.timeout is not None and self.timeout < 0:
            raise ValueError("strategy timeout must be >= 0")
        if self.restarts and self.timeout is None:
            raise ValueError("a restart schedule needs an initial timeout")
        # Tolerate lists from callers; the engine treats it as a queue.
        if not isinstance(self.restarts, tuple):
            object.__setattr__(self, "restarts", tuple(self.restarts))
        # A zero/negative restart budget would re-queue with a deadline
        # already in the past: expire() and the launch loop would spin
        # until the schedule drains without ever giving the solver time.
        if any(budget is None or budget <= 0 for budget in self.restarts):
            raise ValueError("restart budgets must all be positive")
        if self.max_crash_retries < 0:
            raise ValueError("max_crash_retries must be >= 0")

    @property
    def is_complete(self) -> bool:
        """Does this strategy explore the *whole* solution space?

        Only a complete strategy's ``unsat`` is a proof of infeasibility;
        the route-subset and incremental heuristics may fail on solvable
        instances (paper Sec. V-C), so their verdicts never decide a
        portfolio race (see ``PortfolioResult.verdict_by``).
        """
        return self.options.routes is None and self.options.stages == 1


def default_portfolio(mode: str = MODE_STABILITY) -> List[Strategy]:
    """The paper-derived strategy mix described in the module docstring."""
    def strategy(name: str, routes: Optional[int], stages: int) -> Strategy:
        return Strategy(name, SynthesisOptions(mode=mode, routes=routes,
                                               stages=stages))
    return ([strategy("monolithic", None, 1)]
            + [strategy(f"routes-{k}", k, 1) for k in (1, 2, 3)]
            + [strategy(f"stages-{s}", 3, s) for s in (2, 4)])
