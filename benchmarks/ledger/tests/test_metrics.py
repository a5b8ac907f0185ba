"""The percentile rule, and BENCHMARK.json as the one list of names."""

import re
from types import SimpleNamespace

import pytest

from harness import inputs, metrics


@pytest.mark.parametrize("samples, expected", [
    (5, 50), (19, 50), (39, 50), (40, 75), (99, 75), (100, 90), (5000, 90),
])
def test_highest_supported_percentile(samples, expected):
    # ten samples must lie beyond the reported percentile
    assert metrics.supported_percentile(samples) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 75) == 75
    assert metrics.percentile([3.0, 1.0], 50) == 2.0
    assert metrics.percentile([], 90) == 0.0


def test_quartile_spread():
    assert metrics.quartile_spread([10.0]) is None
    assert metrics.quartile_spread([10.0] * 8) == 0.0
    assert metrics.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(0.3)


def _timed(latencies, failed=0):
    results = [SimpleNamespace(latency=l, error=None) for l in latencies]
    results += [SimpleNamespace(latency=9.0, error="x")] * failed
    return SimpleNamespace(results=results, begin=0.0, end=10.0)


def test_failed_ops_stay_in_the_denominator_not_in_latency():
    e2e = metrics.end_to_end(_timed([1.0, 2.0, 3.0], failed=2), 0.5, 64.0)
    assert e2e["ops_per_s"] == pytest.approx(0.3)
    assert e2e["op_p50_s"] == 2.0


def test_tail_percentile_follows_the_op_list_not_the_successes():
    # 100 ops attempted: the tail is p90 even when only 95 succeeded,
    # so op_tail_s means the same in a run that failed a few.
    timed = _timed([float(i) for i in range(1, 96)], failed=5)
    assert metrics.tail_percentile(timed) == 90
    assert metrics.end_to_end(timed, 0.5, 64.0)["op_tail_s"] == 86.0
    assert metrics.tail_percentile(_timed([1.0] * 20)) == 50


def test_benchmark_json_contract():
    bench = metrics.load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128


def test_every_computed_name_is_listed():
    bench = metrics.load_benchmark()
    e2e = metrics.end_to_end(_timed([1.0]), 0.5, 64.0)
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    with pytest.raises(KeyError):
        metrics.fill(bench["per_layer"], {"no.such_metric": 1})
    filled = metrics.fill(bench["per_layer"], {"sat.conflicts": 7})
    assert filled["sat.conflicts"] == {"value": 7, "unit": "count"}
    assert filled["theory.asserts"]["value"] == 0


def test_sanity_checks_are_enforced_only_when_measurable():
    checks = metrics.sanity("session_bool", {"theory.asserts": 3},
                            traced=True, full_scale=True)
    assert checks[0]["enforced"] and not checks[0]["holds"]
    checks = metrics.sanity("session_bool", {}, traced=False, full_scale=True)
    assert not checks[0]["enforced"]
    checks = metrics.sanity("service_unique", {"cache.evictions": 0},
                            traced=False, full_scale=False)
    assert not any(c["enforced"] for c in checks)
