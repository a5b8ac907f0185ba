"""repro.api — the unified solving-session API.

One declarative :class:`Session` in front of interchangeable solving
engines (:class:`NativeBackend`, :class:`SerializationBackend`, or any
:class:`SolverBackend` implementation), with rich :class:`CheckOutcome`
results and first-class unsat cores.  See ``docs/api.md``.
"""

from .backends import (
    BACKENDS,
    BackendAnswer,
    NativeBackend,
    SerializationBackend,
    SolverBackend,
    make_backend,
)
from .outcome import CheckOutcome
from .session import Session
from .smtlib import to_smt2

__all__ = [
    "BACKENDS",
    "BackendAnswer",
    "CheckOutcome",
    "NativeBackend",
    "SerializationBackend",
    "Session",
    "SolverBackend",
    "make_backend",
    "to_smt2",
]
