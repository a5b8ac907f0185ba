"""From-scratch CDCL SAT solver (propositional core of the SMT substrate).

This package replaces the propositional engine of Z3 used by the paper.  :class:`~repro.sat.solver.SatSolver` exposes a theory hook
that :mod:`repro.smt` uses to implement DPLL(T).
"""

from .literals import (
    FALSE,
    TRUE,
    UNASSIGNED,
    from_dimacs,
    is_positive,
    lit,
    neg,
    to_dimacs,
    var_of,
)
from .solver import SatSolver, TheoryBackend, luby

__all__ = [
    "FALSE",
    "SatSolver",
    "TheoryBackend",
    "TRUE",
    "UNASSIGNED",
    "from_dimacs",
    "is_positive",
    "lit",
    "luby",
    "neg",
    "to_dimacs",
    "var_of",
]
