"""``agree`` on synthetic pass / fail / unresolved inputs."""

import json

from harness import agree

BENCH = {
    "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def _file(tmp_path, name, runs, failed=0, correct=True):
    path = tmp_path / name
    path.write_text(json.dumps({"runs": [
        {"workload": w, "failed": failed, "correct": correct, "end_to_end": {
            m: {"value": v, "unit": "x"} for m, v in metrics.items()}}
        for w, metrics in runs]}))
    return path


def _timing(rows):
    return [r for r in rows if r["metric"] in ("ops_per_s", "setup_s")]


def test_judge_pair():
    assert agree.judge_pair([100.0], [105.0], 0.1)[0] == agree.AGREE
    assert agree.judge_pair([100.0], [95.0], 0.1)[0] == agree.AGREE
    # out of bound either way round is a disagreement
    assert agree.judge_pair([100.0], [120.0], 0.1)[0] == agree.DISAGREE
    assert agree.judge_pair([120.0], [100.0], 0.1)[0] == agree.DISAGREE
    # ... unless a side's own spread is wider than the bound
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert agree.judge_pair([100.0, 101.0, 99.0, 100.0], noisy, 0.1)[0] \
        == agree.UNRESOLVED
    assert agree.judge_pair([], [1.0], 0.1)[0] == agree.UNRESOLVED
    status, ratio = agree.judge_pair([2.0, 2.0], [3.0, 3.0], 0.1)
    assert (status, ratio) == (agree.DISAGREE, 1.5)


def test_agreeing_files_exit_zero(tmp_path, capsys):
    a = _file(tmp_path, "a.json", [("w1", {"ops_per_s": 10.0, "setup_s": 1.0})])
    b = _file(tmp_path, "b.json", [("w1", {"ops_per_s": 10.5, "setup_s": 1.2})])
    assert agree.main(str(a), str(b), BENCH) == 0
    out = capsys.readouterr().out
    # two timing rows and the failed / incorrect_runs rows
    assert "w1.ops_per_s" in out and "w1.failed" in out
    assert "4 agree, 0 unresolved, 0 disagree" in out


def test_disagreeing_files_exit_nonzero(tmp_path, capsys):
    a = _file(tmp_path, "a.json", [("w1", {"ops_per_s": 10.0, "setup_s": 1.0}),
                                   ("w2", {"ops_per_s": 5.0, "setup_s": 1.0})])
    b = _file(tmp_path, "b.json", [("w1", {"ops_per_s": 10.0, "setup_s": 1.0}),
                                   ("w2", {"ops_per_s": 4.0, "setup_s": 1.0})])
    assert agree.main(str(a), str(b), BENCH) == 1
    rows = agree.compare(a, b, BENCH)
    bad = [r for r in rows if r["status"] == agree.DISAGREE]
    assert [(r["workload"], r["metric"]) for r in bad] == [("w2", "ops_per_s")]
    assert bad[0]["ratio"] == 0.8


def test_missing_metric_is_unresolved_not_a_pass(tmp_path):
    a = _file(tmp_path, "a.json", [("w1", {"ops_per_s": 10.0, "setup_s": 1.0})])
    b = _file(tmp_path, "b.json", [("w1", {"ops_per_s": 10.0})])
    rows = _timing(agree.compare(a, b, BENCH))
    assert [r["status"] for r in rows] == [agree.AGREE, agree.UNRESOLVED]
    assert agree.main(str(a), str(b), BENCH) == 0


def test_medians_over_repeated_runs(tmp_path):
    a = _file(tmp_path, "a.json", [("w1", {"ops_per_s": v, "setup_s": 1.0})
                                   for v in (9.9, 10.0, 10.1)])
    b = _file(tmp_path, "b.json", [("w1", {"ops_per_s": v, "setup_s": 1.0})
                                   for v in (10.0, 10.2, 30.0)])
    row = _timing(agree.compare(a, b, BENCH))[0]
    assert row["runs"] == (3, 3) and row["b"] == 10.2
    assert row["status"] == agree.AGREE


def test_wrong_answers_disagree_whatever_the_timings(tmp_path):
    runs = [("w1", {"ops_per_s": 10.0, "setup_s": 1.0})]
    good = _file(tmp_path, "good.json", runs)
    failing = _file(tmp_path, "failing.json", runs, failed=2, correct=False)
    rows = {r["metric"]: r for r in agree.compare(good, failing, BENCH)}
    assert rows["failed"]["status"] == agree.DISAGREE
    assert (rows["failed"]["a"], rows["failed"]["b"]) == (0, 2)
    assert rows["incorrect_runs"]["status"] == agree.DISAGREE
    assert rows["ops_per_s"]["status"] == agree.AGREE
    assert agree.main(str(good), str(failing), BENCH) == 1
    # two sides that are wrong in the same way do not "agree" either
    assert agree.main(str(failing), str(failing), BENCH) == 1
    # no failed op, but a broken sanity check or a leaked child
    broken = _file(tmp_path, "broken.json", runs, correct=False)
    rows = {r["metric"]: r for r in agree.compare(good, broken, BENCH)}
    assert rows["failed"]["status"] == agree.AGREE
    assert rows["incorrect_runs"]["status"] == agree.DISAGREE
