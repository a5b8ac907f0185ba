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
from typing import List, Optional

from ..core.synthesizer import SynthesisOptions


@dataclass(frozen=True)
class Strategy:
    """One named synthesis configuration entered into the race.

    Every attempt runs until it answers, dies or the race's global
    deadline passes.  An attempt that *dies without reporting*
    (SIGKILL/OOM, a dropped result frame) or is killed for missed
    heartbeats is relaunched — re-seeded from the race's knowledge pool,
    after capped exponential backoff — up to
    :data:`~repro.runtime.supervision.MAX_CRASH_RETRIES` times before the
    strategy is declared crash-exhausted and handed to the serial
    fallback (see ``docs/robustness.md``).
    """

    name: str
    options: SynthesisOptions

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("strategy needs a non-empty name")

    @property
    def is_complete(self) -> bool:
        """Does this strategy explore the *whole* solution space?

        Only a complete strategy's ``unsat`` is a proof of infeasibility;
        the route-subset and incremental heuristics — and a ``path_cutoff``,
        which drops every longer route — may fail on solvable instances
        (paper Sec. V-C), so their verdicts never decide a portfolio race
        (see ``PortfolioResult.verdict_by``).
        """
        opts = self.options
        return (opts.routes is None and opts.path_cutoff is None
                and opts.stages == 1)


def default_portfolio() -> List[Strategy]:
    """The paper-derived strategy mix described in the module docstring."""
    def strategy(name: str, routes: Optional[int], stages: int) -> Strategy:
        return Strategy(name, SynthesisOptions(routes=routes, stages=stages))
    return ([strategy("monolithic", None, 1)]
            + [strategy(f"routes-{k}", k, 1) for k in (1, 2, 3)]
            + [strategy(f"stages-{s}", 3, s) for s in (2, 4)])
