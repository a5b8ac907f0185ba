"""Solving engines behind :class:`repro.api.Session`.

A backend is anything satisfying the small :class:`SolverBackend`
protocol: it receives assertions and scope operations as the session
applies them, and answers ``check(assumptions)`` with a
:class:`BackendAnswer`.  Two implementations prove the seam:

* :class:`NativeBackend` — the in-process DPLL(T) engine
  (:class:`repro.smt.SolverEngine`): fully incremental, produces models,
  per-check statistics, and deletion-minimized unsat cores.
* :class:`SerializationBackend` — renders every check as a standalone
  SMT-LIB2 script, which can be written to a directory for offline
  solving, and answers by replaying the serialized assertion set on a
  fresh native engine per check — deliberately stateless, which
  cross-checks that the declarative session log is complete.

Backends are looked up by name through :func:`make_backend`, the seam a
third-party engine would register through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Protocol, Sequence,
                    runtime_checkable)

from ..errors import SolverError
from ..smt.solver import CheckResult, Model, SolverEngine, sat, unsat
from ..smt.terms import BoolExpr
from . import smtlib


@dataclass
class BackendAnswer:
    """One backend's reply to ``check``."""

    status: CheckResult
    model: Optional[Model] = None
    statistics: Dict[str, int] = field(default_factory=dict)
    #: Failed-assumption subset on unsat (None = not computed).
    unsat_core: Optional[List[BoolExpr]] = None
    #: Backend-specific artifacts (e.g. the serialized script path).
    artifacts: Dict[str, str] = field(default_factory=dict)


@runtime_checkable
class SolverBackend(Protocol):
    """What a solving engine must provide to power a session."""

    name: str

    def add(self, expr: BoolExpr) -> None:
        """Assert ``expr`` in the current scope."""

    def push(self) -> None:
        """Open a retractable assertion scope."""

    def pop(self, n: int = 1) -> None:
        """Retract the ``n`` innermost scopes."""

    def check(
        self,
        assumptions: Sequence[BoolExpr],
        minimize_core: bool = True,
    ) -> BackendAnswer:
        """Decide satisfiability under ``assumptions``."""

    def statistics(self) -> Dict[str, int]:
        """Cumulative counters for this backend instance."""


class NativeBackend:
    """The incremental DPLL(T) engine as a session backend.

    ``engine`` injects a prebuilt :class:`SolverEngine` (tests and the
    synthesizer's one-engine-per-run contract use this); by default a
    fresh engine is created from the keyword options.
    """

    name = "native"

    def __init__(self, theory_propagation: bool = True,
                 on_restart: Optional[Callable[[SolverEngine], None]] = None,
                 max_conflicts: Optional[int] = None,
                 engine: Optional[SolverEngine] = None) -> None:
        self._engine = engine if engine is not None else SolverEngine(
            theory_propagation=theory_propagation,
            on_restart=on_restart,
            max_conflicts=max_conflicts)
        self._engine.backend_name = self.name

    @property
    def engine(self) -> SolverEngine:
        """The underlying engine (escape hatch for advanced callers)."""
        return self._engine

    def add(self, expr: BoolExpr) -> None:
        self._engine.add(expr)

    def push(self) -> None:
        self._engine.push()

    def pop(self, n: int = 1) -> None:
        self._engine.pop(n)

    def check(
        self,
        assumptions: Sequence[BoolExpr],
        minimize_core: bool = True,
    ) -> BackendAnswer:
        status = self._engine.check(*assumptions)
        stats = self._engine.last_check_statistics
        if status == sat:
            return BackendAnswer(status, self._engine.model(), stats)
        core: Optional[List[BoolExpr]] = None
        # unknown (budget/stop abort) has no core to extract.
        if assumptions and status == unsat:
            before = self._engine.core_minimization_checks
            core = self._engine.unsat_core(minimize=minimize_core)
            stats["core_minimization_checks"] = (
                self._engine.core_minimization_checks - before
            )
        return BackendAnswer(status, None, stats, unsat_core=core)

    def statistics(self) -> Dict[str, int]:
        stats = dict(self._engine.statistics)
        stats["core_minimization_checks"] = (
            self._engine.core_minimization_checks
        )
        return stats


class SerializationBackend:
    """Serialize every check; replay it on a fresh native engine.

    Args:
        dump_dir: when set, each check's script is written there as
            ``check_<n>.smt2`` for offline solving.
    """

    name = "serialization"

    def __init__(self, dump_dir: Optional[str | Path] = None) -> None:
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self._frames: List[List[BoolExpr]] = [[]]
        self._checks = 0
        self._serialized_bytes = 0
        self._replay_totals: Dict[str, int] = {}
        self.last_script: Optional[str] = None

    # -- session state mirroring ----------------------------------------

    def add(self, expr: BoolExpr) -> None:
        self._frames[-1].append(expr)

    def push(self) -> None:
        self._frames.append([])

    def pop(self, n: int = 1) -> None:
        if n < 0 or n > len(self._frames) - 1:
            raise SolverError(
                f"cannot pop {n} scope(s); {len(self._frames) - 1} pushed"
            )
        for _ in range(n):
            self._frames.pop()

    @property
    def assertions(self) -> List[BoolExpr]:
        return [e for frame in self._frames for e in frame]

    # -- checking --------------------------------------------------------

    def check(
        self,
        assumptions: Sequence[BoolExpr],
        minimize_core: bool = True,
    ) -> BackendAnswer:
        assertions = self.assertions
        script, _terms = smtlib.to_smt2(assertions, assumptions)
        self.last_script = script
        self._checks += 1
        self._serialized_bytes += len(script)
        artifacts = {"format": "smt2"}
        if self.dump_dir is not None:
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            path = self.dump_dir / f"check_{self._checks:04d}.smt2"
            path.write_text(script)
            artifacts["path"] = str(path)
        # Replay the recorded assertion log on a fresh native engine.
        engine = SolverEngine()
        engine.backend_name = self.name
        for expr in assertions:
            engine.add(expr)
        status = engine.check(*assumptions)
        stats = engine.last_check_statistics
        for key, value in stats.items():
            self._replay_totals[key] = self._replay_totals.get(key, 0) + value
        if status == sat:
            return BackendAnswer(status, engine.model(), stats,
                                 artifacts=artifacts)
        core = engine.unsat_core(minimize=minimize_core) if assumptions else None
        return BackendAnswer(status, None, stats, unsat_core=core,
                             artifacts=artifacts)

    def statistics(self) -> Dict[str, int]:
        stats = dict(self._replay_totals)
        stats["serialized_checks"] = self._checks
        stats["serialized_bytes"] = self._serialized_bytes
        return stats


#: Backend registry: name -> factory taking keyword options.
BACKENDS: Dict[str, Callable[..., SolverBackend]] = {
    "native": NativeBackend,
    "serialization": SerializationBackend,
}


def make_backend(name: str, **options: object) -> SolverBackend:
    """Instantiate a registered backend by name."""
    factory = BACKENDS.get(name)
    if factory is None:
        raise SolverError(
            f"unknown solver backend {name!r} (have {sorted(BACKENDS)})"
        )
    return factory(**options)
