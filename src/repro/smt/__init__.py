"""From-scratch SMT solver for QF_LRA, in place of the paper's Z3.

A z3py-flavoured API (``Real``, ``Bool``, ``And``/``Or``/``Not``,
``SolverEngine``) over a DPLL(T) engine: CDCL SAT core (:mod:`repro.sat`), an
eager incremental difference-logic theory, and an exact rational simplex
(Dutertre & de Moura) for general linear atoms and model certification.
"""

from .difflogic import DifferenceLogic
from .rationals import DeltaRational, materialize_delta
from .simplex import Simplex
from .solver import CheckResult, Model, SolverEngine, sat, unknown, unsat
from .terms import (
    And,
    Atom,
    Bool,
    BoolExpr,
    BoolVal,
    BoolVar,
    ExactlyOne,
    FALSE_EXPR,
    Iff,
    Implies,
    Ite,
    LinExpr,
    Not,
    Or,
    Real,
    RealVal,
    RealVar,
    Sum,
    TRUE_EXPR,
)
from .theory import LraTheory

__all__ = [
    "And",
    "Atom",
    "Bool",
    "BoolExpr",
    "BoolVal",
    "BoolVar",
    "CheckResult",
    "DeltaRational",
    "DifferenceLogic",
    "ExactlyOne",
    "FALSE_EXPR",
    "Iff",
    "Implies",
    "Ite",
    "LinExpr",
    "LraTheory",
    "Model",
    "Not",
    "Or",
    "Real",
    "RealVal",
    "RealVar",
    "Simplex",
    "SolverEngine",
    "Sum",
    "TRUE_EXPR",
    "materialize_delta",
    "sat",
    "unknown",
    "unsat",
]
