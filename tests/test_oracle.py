import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempint import oracle
from tempint.oracle import (
    ConvergenceError,
    DomainError,
    EvalPoint,
    _lentz_cf,
    g_cf,
    g_from_h,
    g_quad,
    h,
    h_array,
    h_series,
)
from tempint.harness import EvalGrid

# Frozen regression constants, computed by adaptive quadrature at
# rel_tol 1e-14 and cross-checked against 30-digit arbitrary precision.
G_0_20 = 4.7024282154290745e-12
G_2P5_4 = 1.7828582389477825e-05

domain_m = st.floats(-4.0, 4.0)
domain_x = st.floats(4.0, 100.0)


class TestClosedForms:
    def test_m_minus2_is_exp(self):
        # integrand reduces to exp(-t)
        assert g_cf(EvalPoint(-2.0, 10.0)) == pytest.approx(
            math.exp(-10.0), rel=1e-13)
        assert g_quad(EvalPoint(-2.0, 4.0)) == pytest.approx(
            math.exp(-4.0), rel=1e-13)

    def test_m_minus3(self):
        assert g_cf(EvalPoint(-3.0, 10.0)) == pytest.approx(
            11.0 * math.exp(-10.0), rel=1e-13)

    def test_m_minus4(self):
        assert g_quad(EvalPoint(-4.0, 10.0)) == pytest.approx(
            122.0 * math.exp(-10.0), rel=1e-13)

    @given(x=domain_x)
    @settings(max_examples=50, deadline=None)
    def test_h_anchors(self, x):
        assert h(EvalPoint(-2.0, x)) == pytest.approx(1.0, rel=1e-12)
        assert h(EvalPoint(-3.0, x)) == pytest.approx((1.0 + x) / x, rel=1e-12)
        assert h(EvalPoint(-4.0, x)) == pytest.approx(
            (x * x + 2.0 * x + 2.0) / (x * x), rel=1e-12)


class TestRegressionConstants:
    def test_g_0_20(self):
        assert g_cf(EvalPoint(0.0, 20.0)) == pytest.approx(G_0_20, rel=1e-12)
        assert g_quad(EvalPoint(0.0, 20.0)) == pytest.approx(G_0_20, rel=1e-12)

    def test_g_2p5_4(self):
        assert g_quad(EvalPoint(2.5, 4.0)) == pytest.approx(G_2P5_4, rel=1e-12)
        assert g_cf(EvalPoint(2.5, 4.0)) == pytest.approx(G_2P5_4, rel=1e-12)


class TestCrossValidation:
    @given(m=domain_m, x=domain_x)
    @settings(max_examples=100, deadline=None)
    def test_cf_vs_quad(self, m, x):
        point = EvalPoint(m, x)
        assert g_cf(point) == pytest.approx(
            g_quad(point), rel=10.0 * oracle.REL_TOL)

    @given(m=domain_m, x=domain_x)
    @settings(max_examples=100, deadline=None)
    def test_positivity(self, m, x):
        point = EvalPoint(m, x)
        assert g_cf(point) > 0.0
        assert h(point) > 0.0

    @given(m=domain_m, x1=domain_x, x2=domain_x)
    @example(m=2.0, x1=4.0, x2=math.nextafter(4.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_x(self, m, x1, x2):
        if x1 == x2:
            return
        lo, hi = sorted((x1, x2))
        assert g_cf(EvalPoint(m, lo)) > g_cf(EvalPoint(m, hi))

    @pytest.mark.parametrize("lo, hi", [
        (4.0, math.nextafter(4.0, 5.0)),
        (math.nextafter(100.0, 0.0), 100.0),
    ])
    def test_adjacent_floats_ordered(self, lo, hi):
        # one ulp of x moves g by 2.5 ulps of g or more on the domain
        for m in np.linspace(-4.0, 4.0, 33).tolist():
            assert g_cf(EvalPoint(m, lo)) > g_cf(EvalPoint(m, hi)), m


class TestSeries:
    def test_single_term(self):
        assert h_series(EvalPoint(0.0, 50.0), 1) == 1.0

    def test_first_correction(self):
        assert h_series(EvalPoint(0.0, 50.0), 2) == pytest.approx(0.96)

    def test_m_minus2_all_terms_vanish(self):
        assert h_series(EvalPoint(-2.0, 8.0), 5) == 1.0

    def test_bracketing_at_large_x(self):
        # consecutive partial sums of the alternating series bracket h
        point = EvalPoint(0.0, 100.0)
        hv = h(point)
        s2 = h_series(point, 2)
        s3 = h_series(point, 3)
        assert s2 < hv < s3

    @given(m=domain_m, x=st.floats(50.0, 100.0), k=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_bracketing_sweep(self, m, x, k):
        # terms only alternate once the factors m+2+j have turned
        # positive, so start the bracket at index >= -(m+1)
        point = EvalPoint(m, x)
        k = max(k, math.ceil(-(m + 1.0)), 1)
        hv = h(point)
        lo, hi = sorted((h_series(point, k), h_series(point, k + 1)))
        assert lo - 1e-12 <= hv <= hi + 1e-12

    def test_ends_at_a_zero_term(self):
        # at m = -2, -3, -4 a factor m + 1 + k is 0: the sum is finite and
        # returns at once, whatever the number of terms asked for
        start = time.perf_counter()
        assert h_series(EvalPoint(-2.0, 8.0), 10**9) == 1.0
        assert h_series(EvalPoint(-3.0, 8.0), 10**9) == 1.125
        assert h_series(EvalPoint(-4.0, 8.0), 10**9) == h_series(
            EvalPoint(-4.0, 8.0), 4)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m, x", [(0.5, 1e200), (1e300, 1e300)])
    def test_outside_working_domain(self, m, x):
        # checked before the first term, however many terms are asked for
        with pytest.raises(DomainError, match="outside working domain"):
            h_series(EvalPoint(m, x), 10**7)

    def test_divergent_partial_sum_raises(self):
        with pytest.raises(ValueError, match="not finite after 231 terms"):
            h_series(EvalPoint(0.0, 4.0), 1000)
        # 230 terms still sum to a finite value
        assert math.isfinite(h_series(EvalPoint(0.0, 4.0), 230))

    @pytest.mark.parametrize("m", [-3.5, -2.5, 0.0, 4.0])
    def test_bounded_on_the_working_domain(self, m):
        # at x = 100 the terms shrink for the longest before they grow;
        # the partial sums still overflow within a few hundred terms
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not finite"):
            h_series(EvalPoint(m, 100.0), 10**9)
        assert time.perf_counter() - start < 1.0

    def test_terms_validation(self):
        with pytest.raises(ValueError):
            h_series(EvalPoint(0.0, 50.0), 0)


class TestErrors:
    def test_x_zero_rejected(self):
        with pytest.raises(DomainError):
            EvalPoint(0.0, 0.0)

    def test_outside_working_domain(self):
        with pytest.raises(DomainError):
            g_cf(EvalPoint(0.0, 1.0))
        with pytest.raises(DomainError):
            g_quad(EvalPoint(5.0, 10.0))

    def test_convergence_failure_carries_iterates(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError) as exc:
            g_cf(EvalPoint(0.0, 4.0))
        assert len(exc.value.last_iterates) == 2


def _grid_axes(spec, refine=1):
    grid = EvalGrid.from_spec(spec).refined(refine)
    return np.array(grid.m_values), np.array(grid.x_values)


def _reference_h(m, x):
    # the scalar continued fraction
    return x * _lentz_cf(-(m + 1.0), x)


def _scalar_h(ms, xs):
    return np.array([[_reference_h(m, x) for x in xs] for m in ms])


class TestHArray:
    @pytest.mark.parametrize("refine", [1, 4])
    def test_bit_identical_on_paper_eval(self, refine):
        ms, xs = _grid_axes("paper-eval", refine)
        assert np.array_equal(h_array(ms[:, None], xs), _scalar_h(ms, xs))

    def test_bit_identical_on_random_scatter(self):
        rng = np.random.default_rng(7)
        ms = rng.uniform(-4.0, 4.0, 2000)
        xs = rng.uniform(4.0, 100.0, 2000)
        scalar = [_reference_h(m, x) for m, x in zip(ms, xs)]
        assert np.array_equal(h_array(ms, xs), scalar)

    def test_unconverged_lane_raises(self, monkeypatch):
        # 10 iterations converge at x = 100 but not at x = 5 or x = 4: the
        # first open lane in C order names the error, with the last two
        # iterates of the scalar fraction there
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 10)
        assert h_array(0.0, 100.0) == _reference_h(0.0, 100.0)
        with pytest.raises(ConvergenceError) as scalar:
            _lentz_cf(-1.0, 5.0)
        with pytest.raises(ConvergenceError) as array:
            h_array(0.0, np.array([100.0, 5.0, 4.0]))
        assert "Gamma(-1.0, 5.0) did not converge" in str(array.value)
        assert str(array.value) == str(scalar.value)
        assert array.value.last_iterates == scalar.value.last_iterates

    def test_domain_error_names_first_bad_point(self):
        ms = np.array([0.0, 1.0, 4.5, 2.0])
        with pytest.raises(DomainError, match=r"\(m=4\.5, x=10\.0\)"):
            h_array(ms, 10.0)

    def test_shapes(self):
        assert h_array(np.empty(0), 10.0).shape == (0,)
        assert h_array(-2.0, 10.0) == 1.0
        # a Python float, whose repr the CLI prints
        assert type(h(EvalPoint(0.0, 10.0))) is float


class TestMpmathOracle:
    """An independent third oracle: Gamma(-(m+1), x) at 40 digits."""

    def test_coarse_grid_agreement(self):
        mpmath = pytest.importorskip("mpmath")
        ms, xs = _grid_axes("coarse")
        h_grid = h_array(ms[:, None], xs)
        worst = 0.0
        with mpmath.workdps(40):
            for i, m in enumerate(ms.tolist()):
                for k, x in enumerate(xs.tolist()):
                    ref = mpmath.gammainc(-(m + 1.0), x)
                    g_h = (float(h_grid[i, k]) * mpmath.exp(-x)
                           * mpmath.power(x, -(m + 2.0)))
                    for val in (g_cf(EvalPoint(m, x)), g_h):
                        worst = max(worst, abs(float(val / ref - 1)))
        assert worst < 1e-13

    def test_g_cf_to_a_few_ulps(self):
        mpmath = pytest.importorskip("mpmath")
        ms, xs = _grid_axes("coarse")
        worst = 0.0
        with mpmath.workdps(40):
            for m in ms.tolist():
                for x in xs.tolist():
                    ref = mpmath.gammainc(-(m + 1.0), x)
                    worst = max(worst,
                                abs(float(g_cf(EvalPoint(m, x)) / ref - 1)))
        assert worst < 1e-15

    def test_g_from_h_prefactor_to_a_few_ulps(self):
        # exp(-x) * x**-(m+2) alone, with h = 1
        mpmath = pytest.importorskip("mpmath")
        ms, xs = _grid_axes("coarse")
        worst = 0.0
        with mpmath.workdps(40):
            for m in ms.tolist():
                for x in xs.tolist():
                    ref = mpmath.exp(-x) * mpmath.power(x, -(m + 2.0))
                    worst = max(worst,
                                abs(float(g_from_h(m, x, 1.0) / ref - 1)))
        assert worst < 5e-16
