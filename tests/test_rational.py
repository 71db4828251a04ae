import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempint.harness import EvalGrid
from tempint.models import eval_model, model_h
from tempint.oracle import EvalPoint
from tempint.rational import (
    BivariatePoly,
    ParseError,
    PoleError,
    RationalApproximant,
    denom_lower_bound,
    index_pairs,
    load_coeffs,
    paper_approximant,
    rational_eval_h_array,
    save_coeffs,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def dict_horner(p: BivariatePoly, m, x):
    """Reference evaluation from an (i, j)-keyed coefficient dict.

    The same Horner order as ``BivariatePoly.eval``: x powers
    descending, each with its m-polynomial by Horner.
    """
    c = dict(zip(index_pairs(p.degree), p.coeffs))
    acc = 0.0
    for i in range(p.degree, -1, -1):
        inner = 0.0
        for j in range(p.degree - i, -1, -1):
            inner = inner * m + c[(i, j)]
        acc = acc * x + inner
    return acc


def test_index_pairs_graded_lex():
    assert index_pairs(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(index_pairs(4)) == 15


class TestPolyEval:
    def test_zero_poly(self):
        p = BivariatePoly(3, [0.0] * 10)
        assert p.eval(1.7, 42.0) == 0.0
        assert p.is_zero()

    def test_linear(self):
        p = BivariatePoly(1, [1.0, 2.0, 0.0])
        assert p.eval(-3.0, 3.0) == 7.0

    def test_paper_numerator_at_origin_m(self):
        r = paper_approximant(1)
        expected = 0.237276056849810 + 0.388591025647952 * 10.0
        assert r.numer.eval(0.0, 10.0) == pytest.approx(expected, rel=1e-15)

    def test_wrong_length_rejected(self):
        for n_coeffs in (0, 2, 4):
            with pytest.raises(ValueError, match="needs 3 coefficients"):
                BivariatePoly(1, [1.0] * n_coeffs)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite coefficient c_01"):
                BivariatePoly(1, [1.0, 0.0, bad])

    def test_coeffs_are_python_floats(self):
        p = BivariatePoly(1, np.array([1.0, 2.0, 3.0]))
        assert p.coeffs == (1.0, 2.0, 3.0)
        assert all(type(v) is float for v in p.coeffs)

    @pytest.mark.parametrize("degree", range(7))
    def test_coeff_follows_index_pairs(self, degree):
        pairs = index_pairs(degree)
        p = BivariatePoly(degree, [float(k) for k in range(len(pairs))])
        for k, (i, j) in enumerate(pairs):
            assert p.coeff(i, j) == float(k)
        assert p.coeff(degree + 1, 0) == 0.0
        assert p.coeff(0, -1) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_eval_matches_dict_horner(self, n, paper_eval_grid):
        r = paper_approximant(n)
        rng = random.Random(n)
        points = [(rng.uniform(-4.0, 4.0), rng.uniform(4.0, 100.0))
                  for _ in range(2000)]
        m_col = np.array(paper_eval_grid.m_values)[:, None]
        x_row = np.array(paper_eval_grid.x_values)
        for p in (r.numer, r.denom):
            for m, x in points:
                assert p.eval(m, x) == dict_horner(p, m, x)
            assert np.array_equal(p.eval(m_col, x_row),
                                  dict_horner(p, m_col, x_row))

    def test_array_eval_matches_scalar(self):
        p = BivariatePoly(2, [1.0, 0.0, 0.0, 0.0, -0.5, 2.0])
        xs = np.array([4.0, 10.0, 100.0])
        vals = p.eval(1.5, xs)
        for x, v in zip(xs, vals):
            assert v == p.eval(1.5, float(x))


class TestRationalEval:
    def test_identity_ratio(self):
        p = BivariatePoly(1, [0.3, 1.1, -2.0])
        r = RationalApproximant(p, p)
        for m, x in ((0.0, 5.0), (-3.3, 77.0)):
            assert model_h(r, m, x) == 1.0

    def test_paper_g1_value(self):
        r = paper_approximant(1)
        expected = (0.237276056849810 + 3.88591025647952) / (1 + 3.86946448530584)
        assert model_h(r, 0.0, 10.0) == pytest.approx(expected, rel=1e-15)

    def test_g3_accuracy_at_0_20(self):
        from tempint.oracle import h
        r = paper_approximant(3)
        hv = h(EvalPoint(0.0, 20.0))
        assert model_h(r, 0.0, 20.0) == pytest.approx(hv, rel=1.72e-6)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            RationalApproximant(BivariatePoly(1, [1.0, 0.0, 0.0]),
                                BivariatePoly(2, [1.0] + [0.0] * 5))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalApproximant(BivariatePoly(1, [1.0, 0.0, 0.0]),
                                BivariatePoly(1, [0.0, -0.0, 0.0]))

    def test_pole_error(self):
        r = RationalApproximant(
            BivariatePoly(1, [1.0, 0.0, 0.0]),
            BivariatePoly(1, [-10.0, 1.0, 0.0]))   # Q = x - 10
        with pytest.raises(PoleError):
            model_h(r, 0.0, 10.0)
        with pytest.raises(PoleError):
            rational_eval_h_array(r, 0.0, np.array([4.0, 50.0]))

    @given(k=st.integers(-40, 40), neg=st.booleans(),
           m=st.floats(-4.0, 4.0), x=st.floats(4.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, k, neg, m, x):
        # dyadic scales keep the coefficient products exact, so the ratio
        # must agree to 2 ulps
        lam = (-1.0 if neg else 1.0) * 2.0 ** k
        r = paper_approximant(2)
        scaled = RationalApproximant(
            BivariatePoly(2, [lam * v for v in r.numer.coeffs]),
            BivariatePoly(2, [lam * v for v in r.denom.coeffs]))
        v1 = model_h(r, m, x)
        v2 = model_h(scaled, m, x)
        assert v2 == pytest.approx(v1, rel=4.5e-16)  # 2 ulps

    def test_scale_invariance_non_dyadic(self):
        # arbitrary scales round each coefficient; allow a little headroom
        lam = 3.7
        r = paper_approximant(2)
        scaled = RationalApproximant(
            BivariatePoly(2, [lam * v for v in r.numer.coeffs]),
            BivariatePoly(2, [lam * v for v in r.denom.coeffs]))
        for m in (-4.0, -1.3, 0.0, 2.5, 4.0):
            for x in (4.0, 17.0, 63.0, 100.0):
                assert model_h(scaled, m, x) == pytest.approx(
                    model_h(r, m, x), rel=1e-13)

    def test_prefactor(self):
        p = BivariatePoly(1, [1.0, 0.5, 0.0])
        r = RationalApproximant(p, p)
        assert eval_model(r, -2.0, 5.0) == pytest.approx(
            math.exp(-5.0), rel=1e-15)

    def test_g4_accuracy_at_0_50(self):
        from tempint.oracle import g_cf
        r = paper_approximant(4)
        g_true = g_cf(EvalPoint(0.0, 50.0))
        assert eval_model(r, 0.0, 50.0) == pytest.approx(
            g_true, rel=6.18e-7)

    def test_g2_accuracy_at_2p5_4(self):
        from tempint.oracle import g_cf
        r = paper_approximant(2)
        g_true = g_cf(EvalPoint(2.5, 4.0))
        assert eval_model(r, 2.5, 4.0) == pytest.approx(
            g_true, rel=6.26e-5)


class TestDenominatorSignConstancy:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_poles_on_fine_grid(self, n):
        r = paper_approximant(n)
        m = np.round(np.arange(-4.0, 4.0 + 1e-9, 0.01), 10)
        x = np.round(np.arange(4.0, 100.0 + 1e-9, 0.1), 10)
        mm, xx = np.meshgrid(m, x, indexing="ij")
        vals = rational_eval_h_array(r, mm, xx)  # raises PoleError on a pole
        assert np.all(np.isfinite(vals))


class TestDenomLowerBound:
    @pytest.mark.parametrize("coeff", sorted(GOLDEN.glob("fit-n*-*.coeff")),
                             ids=lambda path: path.stem)
    def test_preset_fits_proven_at_first_vertex(self, coeff):
        # every preset fit's least Bernstein coefficient is the one at
        # (m0, x0), so the bound is Q there: the golden denom_min
        report = dict(line.split(" ", 1) for line in
                      coeff.with_suffix(".report").read_text().splitlines())
        grid = EvalGrid.from_spec(report["grid-spec"])
        q = load_coeffs(coeff).denom
        bound, proven = denom_lower_bound(q, grid)
        assert proven and repr(bound) == report["denom_min"]
        assert bound == q.eval(grid.m_values[0], grid.x_values[0])

    @pytest.mark.parametrize("n, bound", [(1, 1.197256719103604),
                                          (2, 2.106360845442932),
                                          (3, 6.0269707007836715),
                                          (4, 25.81110156123168)])
    def test_bundled_on_the_working_domain(self, n, bound):
        grid = EvalGrid.from_spec("m=-4:4:4,x=4:100:96")
        assert denom_lower_bound(paper_approximant(n).denom, grid) == (
            bound, True)

    def test_interior_least_coefficient(self):
        # Q = (x - 50)**2 + 3000; with x = 4 + 96 * s on coarse its
        # Bernstein coefficients are 5116, 700 and 5500 for every m: the
        # least is no vertex's, and is below Q's minimum, Q(50) = 3000
        q = BivariatePoly(2, [5500, -100, 0, 1, 0, 0])
        bound, proven = denom_lower_bound(q, EvalGrid.from_spec("coarse"))
        assert (bound, proven) == (700.0, True)
        assert bound < q.eval(0.0, 50.0) == 3000.0

    def test_pole_between_grid_points_not_proven(self, pole_between_points):
        # Q = (x - 6)**2 is at least 4 at every point of coarse but 0 at
        # x = 6; its coefficients on x in [4, 100] are 4, -188 and 8836
        grid = EvalGrid.from_spec("coarse")
        assert min(pole_between_points.denom.eval(m, x)
                   for m in grid.m_values for x in grid.x_values) == 4.0
        assert denom_lower_bound(pole_between_points.denom, grid) == (
            -188.0, False)

    def test_one_m_line(self):
        # arrhenius (m = 0 only): the rectangle is the segment x in [4, 100]
        grid = EvalGrid.from_spec("arrhenius")
        q = BivariatePoly(1, [10, 1, -1])   # 10 + x - m
        assert denom_lower_bound(q, grid) == (14.0, True)
        q = BivariatePoly(2, [36, -12, 5, 1, 0, 0])   # (x - 6)**2 + 5m
        assert denom_lower_bound(q, grid) == (-188.0, False)

    @given(data=st.data(), degree=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_proven_means_positive_at_sampled_points(self, data, degree):
        # exact Q at random points of the rectangle is positive wherever
        # the bound proves it; b_00 up to 1e4 makes most Q proven
        floats = st.floats(-10.0, 10.0)
        coeffs = [data.draw(st.floats(0.0, 1e4))] + [
            data.draw(floats) for _ in index_pairs(degree)[1:]]
        q = BivariatePoly(degree, coeffs)
        m0, m1 = sorted(data.draw(st.floats(-4.0, 4.0)) for _ in range(2))
        x0, x1 = sorted(data.draw(st.floats(4.0, 100.0)) for _ in range(2))
        grid = EvalGrid((m0, m1), (x0, x1))
        bound, proven = denom_lower_bound(q, grid)
        for _ in range(20):
            m = Fraction(data.draw(st.floats(m0, m1)))
            x = Fraction(data.draw(st.floats(x0, x1)))
            exact = sum(Fraction(c) * x ** i * m ** j
                        for (i, j), c in zip(index_pairs(degree), q.coeffs))
            assert exact > 0 or not proven
            assert bound <= exact or math.isclose(bound, exact, rel_tol=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        r = paper_approximant(2)
        path = tmp_path / "g2.coeff"
        save_coeffs(r, path)
        back = load_coeffs(path)
        assert back.numer.coeffs == r.numer.coeffs
        assert back.denom.coeffs == r.denom.coeffs

    @given(vals=st.lists(
        st.floats(allow_nan=False, allow_infinity=False,
                  min_value=-1e12, max_value=1e12),
        min_size=12, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, vals, tmp_path_factory):
        if all(v == 0.0 for v in vals[6:]):
            vals[6] = 1.0
        r = RationalApproximant(
            BivariatePoly(2, vals[:6]), BivariatePoly(2, vals[6:]))
        path = tmp_path_factory.mktemp("coeff") / "r.coeff"
        save_coeffs(r, path)
        back = load_coeffs(path)
        assert back.numer.coeffs == r.numer.coeffs
        assert back.denom.coeffs == r.denom.coeffs

    def test_bundled_g1_value(self):
        r = paper_approximant(1)
        assert r.numer.coeff(0, 1) == -0.039895879080345

    def test_bundled_g4_b00(self):
        assert paper_approximant(4).denom.coeff(0, 0) == 1e-05

    def test_bundled_g2_has_12_coeffs(self):
        r = paper_approximant(2)
        assert len(r.numer.coeffs) + len(r.denom.coeffs) == 12

    def test_parse_error_bad_index(self, tmp_path):
        path = tmp_path / "bad.coeff"
        path.write_text("degree 1\na 1 1 2.0\n")
        with pytest.raises(ParseError):
            load_coeffs(path)

    def test_parse_error_bad_header(self, tmp_path):
        path = tmp_path / "bad.coeff"
        path.write_text("order 1\n")
        with pytest.raises(ParseError, match="degree"):
            load_coeffs(path)

    def test_parse_error_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.coeff"
        path.write_text("degree 1\na 0 0 1.0\nb 0 0 1.0\n")
        with pytest.raises(ParseError, match="expected 3"):
            load_coeffs(path)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_save_bundled_golden_bytes(self, n, tmp_path):
        # the bundled files keep the published digits ("1", not "1.0"),
        # so saving them writes other bytes: the shortest reprs pinned here
        path = tmp_path / f"g{n}.coeff"
        save_coeffs(paper_approximant(n), path)
        assert path.read_bytes() == (GOLDEN / f"g{n}-saved.coeff").read_bytes()
        assert load_coeffs(path) == paper_approximant(n)

    def test_parse_error_duplicate(self, tmp_path):
        path = tmp_path / "bad.coeff"
        path.write_text("degree 1\na 0 1 1.0\na 0 1 2.0\n")
        with pytest.raises(ParseError, match=r":3: duplicate coefficient a_01"):
            load_coeffs(path)
