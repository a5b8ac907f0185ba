"""Smoke tests for the experiment runners (tiny scales; the benchmarks
exercise the real scales)."""

import pytest

from repro.eval import (
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(n_points=7, n_segments=2)

    def test_curve_and_bound(self, result):
        assert len(result.curve.latencies) == 7
        assert len(result.bound.segments) == 2

    def test_render(self, result):
        text = result.render()
        assert "L (ms)" in text
        assert "piecewise" in text


class TestSynthesisRunners:
    def test_fig4_small(self):
        res = run_fig4(n_problems=1, stages_list=(2, 4), routes=3, n_apps=3)
        assert set(res.points) == {2, 4}
        assert all(len(pts) == 1 for pts in res.points.values())
        assert "Fig. 4" in res.render()

    def test_fig5_small(self):
        res = run_fig5(n_problems=1, stages_list=(2, 4), routes=3, n_apps=3)
        assert [s for s, _ in res.unsolved_pct] == [2, 4]
        assert all(0 <= pct <= 100 for _, pct in res.unsolved_pct)
        assert "Fig. 5" in res.render()

    def test_fig6_small(self):
        res = run_fig6(n_problems=1, routes_list=(1, 3), stages=2, n_apps=3)
        assert set(res.points) == {1, 3}
        assert set(res.unsolved_pct) == {1, 3}
        assert "Fig. 6" in res.render()

    def test_fig7_small(self):
        res = run_fig7(switch_counts=(5, 8), n_messages=14, n_apps=3,
                       routes=3, stages=2)
        assert len(res.times) == 2
        assert "Fig. 7" in res.render()

    def test_table1_small(self):
        res = run_table1(n_apps=4, routes=3, stages=2)
        assert res.stability_status == "sat"
        assert res.n_apps == 4
        assert res.stability_stable_count == 4
        # gm2 (alpha 1.07, beta 80.71 ms, 50 ms period) is stable in
        # every deadline-feasible schedule; gm0 is not.
        assert res.unstable_verdicts["gm2"] == "unsat"
        assert res.unstable_verdicts["gm0"] == "sat"
        assert set(res.unstable_witnesses) == set(res.can_be_unstable)
        text = res.render()
        assert "Stability-Aware" in text and "Deadline" in text
