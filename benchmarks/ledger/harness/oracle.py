"""Answer checking: certify ``sat``, look ``unsat`` up, never trust the path under test.

A ``sat`` answer is certified by something that shares no code with the
solver: schedules go through ``repro.core.collect_violations`` (the
exact validator), propositional models are evaluated clause by clause.
An ``unsat`` answer cannot be certified, so it is compared with a
verdict that did not come from the path under test, in this order: the
op's verdict by construction (pigeon-hole, the funnels below the relief
path's latency), the committed ``expected/<workload>.seed<N>.json``, or
— for any other seed — the reference solve below, run after the timed
section: a direct in-process ``core.solve`` for synthesis problems, the
bare ``repro.sat.SatSolver`` on integer clauses for Session episodes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import (MessageSchedule, Solution, SynthesisOptions,
                        SynthesisProblem, collect_violations, solve)
from repro.sat.literals import lit
from repro.sat.solver import SatSolver

from .inputs import STAGED, Clause, Op

EXPECTED_DIR = Path(__file__).resolve().parent.parent / "expected"


# ---------------------------------------------------------------------------
# Reference verdicts
# ---------------------------------------------------------------------------


def reference_synthesis(problem: SynthesisProblem,
                        options: SynthesisOptions) -> str:
    """Verdict of a direct in-process solve (``sat`` only if certified)."""
    result = solve(problem, options)
    if result.status == "sat" and collect_violations(result.solution):
        return "uncertified"
    return result.status


def _sat_solve(nvars: int, clauses: Sequence[Clause],
               units: Sequence[int] = ()) -> str:
    solver = SatSolver()
    for _ in range(nvars):
        solver.new_var()
    for clause in list(clauses) + [(u,) for u in units]:
        solver.add_clause([lit(abs(l), l > 0) for l in clause])
    return "sat" if solver.solve() else "unsat"


def active_clauses(spec: Dict[str, Any]) -> List[Tuple[List[Clause], List[int]]]:
    """``(clauses in force, assumption literals)`` per check of an episode."""
    if spec["mode"] == "oneshot":
        return [(list(spec["clauses"]), [])]
    if spec["mode"] == "batch":
        return [(list(clauses), []) for clauses in spec["formulas"]]
    frames: List[List[Clause]] = [list(spec["clauses"])]
    checks = []
    for step in spec["steps"]:
        if step[0] == "push":
            frames.append(list(step[1]))
        elif step[0] == "pop":
            frames.pop()
        else:
            checks.append(([c for frame in frames for c in frame],
                           list(step[1])))
    return checks


def reference_episode(spec: Dict[str, Any]) -> str:
    return ",".join(_sat_solve(spec["vars"], clauses, units)
                    for clauses, units in active_clauses(spec))


def reference_verdict(op: Op) -> str:
    if op.kind == "session":
        return reference_episode(op.payload)
    if op.kind == "synth":
        return reference_synthesis(*op.payload)
    if op.kind == "request":
        return reference_synthesis(op.payload["problem"], op.payload["options"])
    # A race answers for the problem, not for one strategy: sat if the
    # staged heuristic finds a certified schedule.
    return reference_synthesis(op.payload, STAGED)


# ---------------------------------------------------------------------------
# Committed expectations
# ---------------------------------------------------------------------------


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}.seed{seed}.json"


def record_expected(workload: str, seed: int, ops: Sequence[Op],
                    seconds: float) -> Path:
    """Solve every distinct op with the reference and write its verdict."""
    verdicts: Dict[str, str] = {}
    for op in ops:
        if op.fingerprint not in verdicts:
            verdicts[op.fingerprint] = reference_verdict(op)
    payload = {"workload": workload, "seed": seed, "seconds": seconds,
               "ops": [{"op": op.op_id, "fingerprint": op.fingerprint,
                        "verdict": verdicts[op.fingerprint]} for op in ops]}
    path = expected_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def load_expected(workload: str, seed: int,
                  ops: Sequence[Op]) -> Optional[Dict[str, str]]:
    """Verdict by fingerprint, or None when no file matches these ops."""
    path = expected_path(workload, seed)
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text())["ops"]
    by_print = {entry["fingerprint"]: entry["verdict"] for entry in recorded}
    if any(op.fingerprint not in by_print for op in ops):
        return None          # recorded at another scale or generator version
    return by_print


# ---------------------------------------------------------------------------
# Certification of what the path under test answered
# ---------------------------------------------------------------------------


def solution_from_wire(problem: SynthesisProblem, schedules: Sequence[dict],
                       mode: str) -> Solution:
    return Solution(problem, {
        entry["uid"]: MessageSchedule(
            uid=entry["uid"], app=entry["app"], route=list(entry["route"]),
            gammas={node: Fraction(g) for node, g in entry["gammas"].items()},
            release=Fraction(entry["release"]), e2e=Fraction(entry["e2e"]))
        for entry in schedules
    }, mode=mode)


def certify_schedule(solution: Optional[Solution]) -> Optional[str]:
    """None when ``solution`` is a valid schedule, else what is wrong."""
    if solution is None:
        return "sat without a schedule"
    violations = collect_violations(solution)
    return f"uncertified: {violations[0]}" if violations else None


def _holds(clause: Clause, model: Dict[int, bool]) -> bool:
    return any(model.get(abs(l), False) == (l > 0) for l in clause)


def certify_episode(spec: Dict[str, Any],
                    checks: Sequence[Dict[str, Any]]) -> Optional[str]:
    """Check every check of an episode: a ``sat`` model satisfies the
    clauses and assumptions in force; an ``unsat`` core is a subset of
    the assumptions and is itself unsatisfiable with those clauses."""
    plan = active_clauses(spec)
    if len(plan) != len(checks):
        return f"{len(checks)} checks answered, {len(plan)} scripted"
    for index, ((clauses, units), check) in enumerate(zip(plan, checks)):
        if check["status"] == "sat":
            model = check["model"]
            bad = [c for c in clauses + [(u,) for u in units]
                   if not _holds(c, model)]
            if bad:
                return f"check {index}: model falsifies {bad[0]}"
        elif check["status"] == "unsat":
            core = check["core"]
            if units and core is None:
                return f"check {index}: unsat under assumptions without a core"
            if core is not None:
                if not set(core) <= set(units):
                    return f"check {index}: core outside the assumptions"
                if _sat_solve(spec["vars"], clauses, core) != "unsat":
                    return f"check {index}: core is satisfiable"
        else:
            return f"check {index}: {check['status']}"
    return None
