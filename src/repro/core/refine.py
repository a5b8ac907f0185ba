"""Quality refinement: jitter-minimizing synthesis (extension).

The paper synthesizes *feasible* stable schedules (Eq. 10 as a
constraint).  A natural extension — enabled by the optimization layer of
:mod:`repro.smt.optimize` — is to *minimize* the total control jitter
subject to the same constraints, pushing every application deep into its
stability region instead of merely inside it.

This is a monolithic (stages = 1) formulation: the objective couples all
applications, so the incremental heuristic does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..api import Session
from ..smt import Sum
from ..smt.optimize import OptimizeResult, minimize
from .encoding import Encoder
from .problem import SynthesisProblem
from .solution import Solution


@dataclass
class RefinedResult:
    """Outcome of jitter-minimizing synthesis."""

    status: str                      # "optimal", "sat", or "unsat"
    solution: Optional[Solution]
    total_jitter: Optional[Fraction]
    probes: int

    @property
    def ok(self) -> bool:
        return self.solution is not None


def minimize_jitter(
    problem: SynthesisProblem,
    routes: Optional[int] = 3,
    path_cutoff: Optional[int] = None,
    tolerance: Fraction | None = None,
    max_probes: int = 16,
) -> RefinedResult:
    """Find a stable schedule minimizing the summed jitter over all apps.

    Returns the best schedule found within the probe budget (status
    ``"sat"``) or a certified near-optimum (status ``"optimal"``).
    """
    problem.require_stability_specs()
    session = Session()
    encoder = Encoder(problem, session, routes, path_cutoff)
    for message in problem.messages:
        encoder.encode_message(message)
    encoder.add_contention_constraints()
    jitters = []
    for app in problem.apps:
        lmin, lmax = encoder.add_stability_constraints(app)
        jitters.append(lmax - lmin)
    objective = Sum(jitters)

    # The constraints are already asserted in the session; the optimizer
    # probes it with push()/pop() bound scopes (no re-encoding).
    result: OptimizeResult = minimize(
        [], objective,
        lower_bound=0, tolerance=tolerance, max_probes=max_probes,
        session=session,
    )
    if not result.ok:
        return RefinedResult("unsat", None, None, result.probes)
    model = result.model
    assert model is not None
    schedules = {
        uid: encoder.freeze_message(plan, model, pin=False)
        for uid, plan in encoder.plans.items()
    }
    solution = Solution(problem, schedules, mode="stability")
    return RefinedResult(result.status, solution, result.objective_bound,
                         result.probes)
