"""The whole run -> verify -> print path at smoke scale (< 20 s)."""

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from harness import inputs, metrics

RUN = Path(__file__).resolve().parents[1] / "run.py"


def _run(*args):
    return subprocess.run([sys.executable, str(RUN), *args],
                          capture_output=True, text=True, timeout=120)


def test_smoke_runs_every_workload(tmp_path):
    start = time.perf_counter()
    done = _run("--smoke", "--out", str(tmp_path))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 20.0
    results = json.loads((tmp_path / "results.json").read_text())
    assert [r["workload"] for r in results["runs"]] == list(inputs.WORKLOADS)
    bench = metrics.load_benchmark()
    wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for run in results["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert {n: e["unit"] for n, e in run["end_to_end"].items()} == wanted
        assert all(e["value"] > 0 for e in run["end_to_end"].values())
    # every metric is printed by name, with its unit
    for workload in inputs.WORKLOADS:
        for name, unit in wanted.items():
            assert any(line.startswith(f"{workload}.{name} ")
                       and line.endswith(f" {unit}")
                       for line in done.stdout.splitlines())
    # the last line is the contract's JSON object
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert not (RUN.parent / ".work").exists()


def test_traced_smoke_reports_every_layer_metric(tmp_path):
    done = _run("--workload", "session_bool", "--workload", "service_unique",
                "--workload", "synth_staged",
                "--seconds", "1", "--trace", "1", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    bench = metrics.load_benchmark()
    results = json.loads((tmp_path / "results.json").read_text())
    for run in results["runs"]:
        assert run["correct"]
        assert set(run["per_layer"]) == {m["name"] for m in bench["per_layer"]}
    by_name = {r["workload"]: r["per_layer"] for r in results["runs"]}
    assert by_name["session_bool"]["theory.asserts"]["value"] == 0
    assert by_name["session_bool"]["sat.propagations"]["value"] > 0
    # ... and counts every assert into either engine where there is one
    staged = {n: e["value"] for n, e in by_name["synth_staged"].items()}
    assert staged["difflogic.asserts"] > 0 and staged["simplex.bound_asserts"] > 0
    assert staged["theory.asserts"] == (staged["simplex.bound_asserts"]
                                        + staged["difflogic.asserts"])
    assert by_name["service_unique"]["cache.stores"]["value"] > 0
    assert by_name["service_unique"]["cache.exact_hits"]["value"] == 0
    assert by_name["service_unique"]["trace.overhead_ratio"]["value"] > 0
    for workload in by_name:
        trace = json.loads((tmp_path / f"trace.{workload}.json").read_text())
        assert {"id", "name", "parent", "op", "start", "end", "busy",
                "count"} <= set(trace["spans"][0])


def test_an_incorrect_run_exits_nonzero(monkeypatch, capsys):
    import run

    def incorrect(harness, benchmark, workload, *args):
        return {"workload": workload, "summary": {
            "correct": False, "attempted": 3, "failed": 1, "metrics": {}}}

    monkeypatch.setattr(run, "run_workload", incorrect)
    assert run.run_main(["--workload", "session_bool"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 1


def test_a_wrong_expectation_fails_the_op():
    """An op whose verdict disagrees with its expectation counts as failed."""
    from harness import execute

    ops = inputs.build("session_bool", 0, 0.1)
    php = next(op for op in ops if op.family.startswith("php"))
    wrong = replace(php, expect="sat")
    checks = execute.run_episode(php.payload, "t")
    verdict = execute._episode_verdict(checks)
    assert verdict == "unsat"
    verifier = execute.Verifier("session_bool", 12345, [wrong], None)
    result = execute.OpResult(wrong, 0.0, 0.1, verdict, checks)
    assert verifier.check(result) == "verdict unsat, expected sat"
    good = execute.OpResult(php, 0.0, 0.1, verdict, checks)
    assert verifier.check(good) is None
    slow = execute.OpResult(php, 0.0, php.limit_s + 1, verdict, checks)
    assert "limit" in verifier.check(slow)
