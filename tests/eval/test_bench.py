"""The regression-tracked benchmark harness: records and comparisons."""

import json

import pytest

from repro.eval.bench import compare, run_bench, run_suite


def test_run_bench_fig3_writes_record(tmp_path):
    record = run_bench("fig3", out_dir=tmp_path)
    path = tmp_path / "BENCH_fig3.json"
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["name"] == "fig3"
    assert on_disk["wall_s"] > 0
    assert on_disk["statuses"] == {"fig3": "ok"}
    assert on_disk["render_digest"] == record["render_digest"]
    # fig3 never touches the SMT solver: empty trajectory.
    assert on_disk["per_check"] == []


def test_unknown_bench_name_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_bench("nope", out_dir=tmp_path)


def test_compare_flags_wall_time_regression():
    base = {"name": "t", "wall_s": 10.0, "statuses": {"a": "sat"}}
    ok = {"name": "t", "wall_s": 12.0, "statuses": {"a": "sat"}}
    slow = {"name": "t", "wall_s": 13.0, "statuses": {"a": "sat"}}
    assert compare(ok, base, threshold=0.25) == []
    problems = compare(slow, base, threshold=0.25)
    assert len(problems) == 1 and "regressed" in problems[0]


def test_compare_counters_gate_is_machine_independent():
    base = {"name": "t", "wall_s": 10.0, "statuses": {"a": "sat"},
            "statistics": {"conflicts": 100, "propagations": 1000}}
    more_work = {"name": "t", "wall_s": 1.0, "statuses": {"a": "sat"},
                 "statistics": {"conflicts": 200, "propagations": 1000}}
    problems = compare(more_work, base, threshold=0.25)
    assert len(problems) == 1 and "conflicts" in problems[0]


def test_compare_wall_gate_can_be_disabled():
    base = {"name": "t", "wall_s": 10.0, "statuses": {"a": "sat"}}
    slow = {"name": "t", "wall_s": 100.0, "statuses": {"a": "sat"}}
    assert compare(slow, base, threshold=0.25) != []
    assert compare(slow, base, threshold=0.25, wall_gate=False) == []


def test_compare_flags_status_change():
    base = {"name": "t", "wall_s": 10.0, "statuses": {"a": "sat", "b": "sat"}}
    cur = {"name": "t", "wall_s": 1.0, "statuses": {"a": "unsat", "b": "sat"}}
    problems = compare(cur, base)
    assert len(problems) == 1
    assert "status" in problems[0] and "'a'" in problems[0]


def test_run_suite_against_baseline(tmp_path):
    base_dir = tmp_path / "base"
    out_dir = tmp_path / "out"
    base_dir.mkdir()
    out_dir.mkdir()
    run_bench("fig3", out_dir=base_dir)
    # Same code, same scale: no regression against the fresh baseline.
    assert run_suite(["fig3"], out_dir=out_dir,
                     baseline_dir=base_dir, threshold=5.0) == 0


def test_run_bench_unsat_core_records_probe_counters(tmp_path):
    record = run_bench("unsat_core", out_dir=tmp_path)
    statuses = record["statuses"]
    assert statuses["probe_conflict"] == "sat"
    assert statuses["infeasible"] == "unsat"
    assert statuses["staged_trap"] == "unsat"
    assert statuses["staged_repaired"] == "sat"
    assert statuses["cores_seen"] == "yes"
    counters = record["core_counters"]
    assert counters["assumption_probes"] > 0
    assert counters["cores_extracted"] > 0
    assert counters["stage_repairs"] > 0
    # the per-check trajectory attributes every entry to a backend
    assert record["per_check"]
    assert all(e.get("backend") == "native" for e in record["per_check"])
    assert "native" in record["by_backend"]


def test_totals_skip_backend_tags(tmp_path):
    record = run_bench("unsat_core", out_dir=tmp_path)
    assert "backend" not in record["statistics"]
    assert all(isinstance(v, (int, float))
               for v in record["statistics"].values())
