"""``run.py agree A.json B.json``: do two result files of one commit agree?

Two sets of runs of the same code should differ by noise only.  For
every workload x end-to-end metric the medians of the two files are
compared against the metric's bound from ``BENCHMARK.json``, in both
directions (neither side is "the change"):

* ``agree``       the medians are within the bound of each other;
* ``unresolved``  they are not, or cannot be compared, but the data
                  cannot tell noise from a difference: a side is
                  missing the metric, or the run-to-run spread (quartile
                  distance over the median) of a side exceeds the bound;
* ``disagree``    they are not, and the spread is known and within the
                  bound (or each side is a single run, where the bound
                  is all there is to go by).

Timings of wrong answers mean nothing (a run that fails ops can even
read faster), so every workload also gets two rows from the runs'
``failed`` and ``correct`` fields: ``failed`` (the most ops any run of
the side failed; the sides must match) and ``incorrect_runs`` (runs with
failed ops, a leaked child or a broken sanity check; must be 0 on both
sides).  Either one off is a ``disagree``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import quartile_spread

AGREE, UNRESOLVED, DISAGREE = "agree", "unresolved", "disagree"


def judge_pair(a: Sequence[float], b: Sequence[float],
               bound: float) -> Tuple[str, Optional[float]]:
    """Status of one metric and the ratio ``median(b) / median(a)``."""
    if not a or not b:
        return UNRESOLVED, None
    base, other = statistics.median(a), statistics.median(b)
    if base == 0 or other == 0:
        return (AGREE if base == other else UNRESOLVED), None
    ratio = other / base
    if max(ratio, 1.0 / ratio) - 1.0 <= bound:
        return AGREE, ratio
    spreads = [quartile_spread(values) for values in (a, b)]
    if any(s is not None and s > bound for s in spreads):
        return UNRESOLVED, ratio
    return DISAGREE, ratio


def _by_workload(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {name: [value per run]}}``: the end-to-end metrics
    plus ``failed`` and ``incorrect`` (0 or 1) of every run."""
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        metrics = grouped.setdefault(run["workload"], {})
        metrics.setdefault("failed", []).append(run["failed"])
        metrics.setdefault("incorrect", []).append(int(not run["correct"]))
        for name, entry in run.get("end_to_end", {}).items():
            metrics.setdefault(name, []).append(entry["value"])
    return grouped


def _answer_rows(workload: str, a: Dict[str, List[float]],
                 b: Dict[str, List[float]]) -> List[Dict[str, Any]]:
    """The ``failed`` and ``incorrect_runs`` rows of one workload."""
    rows = []
    for metric, key, fold in (("failed", "failed", max),
                              ("incorrect_runs", "incorrect", sum)):
        sides = [fold(side[key]) if side else None for side in (a, b)]
        if None in sides:
            status = UNRESOLVED
        elif sides[0] != sides[1] or (metric == "incorrect_runs"
                                      and sides[0] > 0):
            status = DISAGREE
        else:
            status = AGREE
        rows.append({
            "workload": workload, "metric": metric, "unit": "count",
            "bound": 0.0, "a": sides[0], "b": sides[1],
            "runs": (len(a.get(key, ())), len(b.get(key, ()))),
            "ratio": None, "status": status,
        })
    return rows


def compare(path_a: Path, path_b: Path,
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    runs_a, runs_b = _by_workload(path_a), _by_workload(path_b)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in runs_a and workload not in runs_b:
            continue
        rows += _answer_rows(workload, runs_a.get(workload, {}),
                             runs_b.get(workload, {}))
        for metric in benchmark["end_to_end"]:
            a = runs_a.get(workload, {}).get(metric["name"], [])
            b = runs_b.get(workload, {}).get(metric["name"], [])
            status, ratio = judge_pair(a, b, metric["bound"])
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "a": statistics.median(a) if a else None,
                "b": statistics.median(b) if b else None,
                "runs": (len(a), len(b)), "ratio": ratio, "status": status,
            })
    return rows


def render(rows: Sequence[Dict[str, Any]], name_a: str, name_b: str) -> str:
    def cell(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6g}"

    lines = [f"A = {name_a}", f"B = {name_b}",
             f"{'workload.metric':<34}{'A':>12}{'B':>12}  {'B/A':>7}  "
             f"{'bound':>6}  runs   status"]
    for row in rows:
        label = f"{row['workload']}.{row['metric']} [{row['unit']}]"
        lines.append(
            f"{label:<34}{cell(row['a']):>12}{cell(row['b']):>12}  "
            f"{cell(row['ratio']):>7}  {row['bound']:>6.2f}  "
            f"{row['runs'][0]}/{row['runs'][1]}    {row['status']}")
    tally = {s: sum(1 for r in rows if r["status"] == s)
             for s in (AGREE, UNRESOLVED, DISAGREE)}
    lines.append(", ".join(f"{count} {status}"
                           for status, count in tally.items()))
    return "\n".join(lines)


def main(path_a: str, path_b: str, benchmark: Dict[str, Any]) -> int:
    rows = compare(Path(path_a), Path(path_b), benchmark)
    print(render(rows, path_a, path_b))
    if not rows:
        print("no workload in common")
        return 2
    return 1 if any(r["status"] == DISAGREE for r in rows) else 0
