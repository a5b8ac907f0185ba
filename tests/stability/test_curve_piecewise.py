"""Tests for stability curves and the piecewise-linear lower bound."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.control.plants import paper_controller, plant_database
from repro.errors import StabilityAnalysisError
from repro.stability import (
    Segment,
    StabilityCurve,
    StabilitySpec,
    compute_stability_curve,
    fit_lower_bound,
)


@pytest.fixture(scope="module")
def servo_curve():
    spec = [s for s in plant_database() if s.name == "dc_servo"][0]
    ctrl = paper_controller(spec)
    return compute_stability_curve(
        spec.system, spec.nominal_period, ctrl, n_points=13
    )


class TestCurve:
    def test_fig3_shape(self, servo_curve):
        h = servo_curve.sample_period
        # Positive margin at zero latency, on the order of the period.
        assert servo_curve.margins[0] > h / 2
        # Ends at zero margin (nominal stability boundary).
        assert servo_curve.margins[-1] == 0.0
        # Stability region extends past one period of latency.
        assert servo_curve.max_latency > h

    def test_margin_interpolation(self, servo_curve):
        mid = (servo_curve.latencies[3] + servo_curve.latencies[4]) / 2
        m = servo_curve.margin_at(float(mid))
        lo = min(servo_curve.margins[3], servo_curve.margins[4])
        hi = max(servo_curve.margins[3], servo_curve.margins[4])
        assert lo <= m <= hi

    def test_margin_outside_range_is_zero(self, servo_curve):
        assert servo_curve.margin_at(-1.0) == 0.0
        assert servo_curve.margin_at(1e9) == 0.0

    def test_is_stable_region(self, servo_curve):
        assert servo_curve.is_stable(0.0, float(servo_curve.margins[0]) / 2)
        assert not servo_curve.is_stable(0.0, float(servo_curve.margins[0]) * 2)

    def test_as_table(self, servo_curve):
        table = servo_curve.as_table()
        assert len(table) == len(servo_curve.latencies)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(StabilityAnalysisError):
            StabilityCurve(np.array([0.0, 1.0]), np.array([1.0]), 0.01)


class TestFitLowerBound:
    @pytest.mark.parametrize("n_segments", [1, 2, 3, 5])
    def test_bound_below_curve_everywhere(self, servo_curve, n_segments):
        spec = fit_lower_bound(servo_curve, n_segments)
        for L in np.linspace(0.0, float(spec.max_latency) * 0.999, 200):
            fl = Fraction(float(L)).limit_denominator(10**12)
            for seg in spec.segments:
                if seg.l_lo <= fl <= seg.l_hi:
                    bound = float(seg.jitter_bound(fl))
                    assert bound <= servo_curve.margin_at(L) + 1e-9

    def test_segments_tile_latency_axis(self, servo_curve):
        spec = fit_lower_bound(servo_curve, 3)
        assert spec.segments[0].l_lo == 0
        for a, b in zip(spec.segments, spec.segments[1:]):
            assert a.l_hi == b.l_lo

    def test_alpha_beta_nonnegative(self, servo_curve):
        spec = fit_lower_bound(servo_curve, 3)
        for seg in spec.segments:
            assert seg.alpha >= 0
            assert seg.beta >= 0

    def test_fig3_first_segment_alpha_plausible(self, servo_curve):
        # The paper's Table I alphas lie in [1, 2.3]; the servo's first
        # (steep) segment should be in that ballpark.
        spec = fit_lower_bound(servo_curve, 3)
        assert 0.5 <= float(spec.segments[0].alpha) <= 5.0

    def test_invalid_segment_count(self, servo_curve):
        with pytest.raises(StabilityAnalysisError):
            fit_lower_bound(servo_curve, 0)


@st.composite
def synthetic_curves(draw):
    """Any sampled curve the fitter may meet: 2-40 samples at increasing
    latencies (not necessarily from 0), margins >= 0 in any shape —
    non-monotone, with zeros inside the stable range — and no sweep."""
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=40))
    start = draw(st.sampled_from([0.0, steps[0]]))
    latencies = np.cumsum([start] + steps[1:])
    margins = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                            min_size=len(latencies), max_size=len(latencies)))
    curve = StabilityCurve(latencies, np.array(margins), 0.01)
    assume(curve.max_latency > 0)
    return curve


class TestFitLowerBoundProperty:
    """The encoding trusts the fitted segments never to promise more
    jitter than the curve allows (paper Eq. 2-3): a wrong "stable" here
    would come from the maths, not from the solver."""

    @settings(max_examples=150, deadline=None)
    @given(curve=synthetic_curves(), n_segments=st.integers(1, 6))
    def test_bound_stays_below_any_curve(self, curve, n_segments):
        spec = fit_lower_bound(curve, n_segments)
        segments = spec.segments
        assert len(segments) == n_segments
        assert segments[0].l_lo == 0
        assert segments[-1].l_hi == Fraction(curve.max_latency)
        for a, b in zip(segments, segments[1:]):
            assert a.l_hi == b.l_lo
        for seg in segments:
            assert seg.alpha >= 0 and seg.beta >= 0
        grid = np.linspace(0.0, curve.max_latency, 200)
        for latency in np.concatenate([curve.latencies, grid]):
            exact = Fraction(float(latency))
            for seg in segments:
                if seg.l_lo <= exact <= seg.l_hi:
                    assert (float(seg.jitter_bound(exact))
                            <= curve.margin_at(float(latency)) + 1e-9)


class TestStabilitySpec:
    def test_margin_inside_and_outside(self):
        spec = StabilitySpec.single_line(alpha=2, beta="0.020")
        # L + 2J <= 0.020
        assert spec.margin(0.010, 0.004) == pytest.approx(0.002)
        assert spec.is_stable(0.010, 0.005)
        assert not spec.is_stable(0.010, 0.006)

    def test_margin_beyond_range_is_minus_inf(self):
        spec = StabilitySpec.single_line(alpha=1, beta="0.010")
        assert spec.margin(0.011, 0.0) == -np.inf

    def test_table1_values(self):
        """The paper's Table I app 1: period 20 ms, alpha 1.53, beta 27.78 ms;
        the stability-aware result (L=19.98, J=0.01 ms) must be stable and
        the deadline result (L=4.81, J=15.10 ms) unstable."""
        spec = StabilitySpec.single_line(alpha="1.53", beta="0.02778")
        assert spec.is_stable(0.01998, 0.00001)
        assert not spec.is_stable(0.00481, 0.01510)

    def test_rejects_negative_constants(self):
        with pytest.raises(StabilityAnalysisError):
            StabilitySpec((Segment(Fraction(-1), Fraction(1), Fraction(0),
                                   Fraction(1)),))

    def test_rejects_gap_in_segments(self):
        s1 = Segment(Fraction(1), Fraction(10), Fraction(0), Fraction(1))
        s2 = Segment(Fraction(1), Fraction(10), Fraction(2), Fraction(3))
        with pytest.raises(StabilityAnalysisError):
            StabilitySpec((s1, s2))

    def test_empty_rejected(self):
        with pytest.raises(StabilityAnalysisError):
            StabilitySpec(())
