import math

import numpy as np
import pytest

from tempint.models import (
    ALL_TAGS,
    ModelDomainError,
    X_MODEL_ROWS,
    eval_model,
    list_models,
    model_h,
    model_info,
)
from tempint.oracle import EvalPoint


def test_registry_has_21_tags():
    assert len(ALL_TAGS) == 21
    assert "SY88" not in ALL_TAGS  # demonstration-only variant


def test_list_models_filters():
    assert len(list_models()) == 21
    assert len(list_models(0.0)) == 21
    tags_m3 = {info.tag for info in list_models(3.0)}
    assert tags_m3.isdisjoint({"J", "O", "SY", "X"})
    assert len(tags_m3) == 17


def test_sy_value_at_0_20():
    x = 20.0
    expected = (math.exp(-x) / x**2) * (x**4 + 18 * x**3 + 86 * x**2 + 96 * x) \
        / (x**4 + 20 * x**3 + 120 * x**2 + 240 * x + 120)
    assert eval_model("SY", EvalPoint(0.0, x)) == pytest.approx(
        expected, rel=1e-14)


def test_sy88_differs_from_sy():
    p = EvalPoint(0.0, 10.0)
    assert eval_model("SY88", p) != eval_model("SY", p)
    assert model_info("SY88").variant


def test_g_exact_at_m_minus2():
    # m + 2 = 0 collapses the Gorbachev bracket to 1
    assert eval_model("G", EvalPoint(-2.0, 7.0)) == pytest.approx(
        math.exp(-7.0), rel=1e-14)


def test_g_algebraic_identity():
    # same formula written as 1/(1 + (m+2)/x) and x/(x + m + 2)
    for m in (-4.0, -0.7, 0.0, 2.2, 4.0):
        for x in (4.0, 21.0, 100.0):
            assert model_h("G", m, x) == pytest.approx(
                x / (x + m + 2.0), rel=1e-15)


def test_cp_weights_and_exactness_at_m_minus2():
    s2 = math.sqrt(2.0)
    assert (2 - s2) / 4 + (2 + s2) / 4 == pytest.approx(1.0, rel=1e-16)
    # both power terms become 1 when m + 2 = 0
    assert model_h("Cp", -2.0, 33.0) == pytest.approx(1.0, rel=1e-15)


def test_cp_column_equals_row_stack():
    # Cp's column is computed with an array exponent, and its rows at
    # m = -3, -2, -1.5, -1, 0 redone with a scalar one; each row must
    # keep the bits of its own scalar evaluation
    xs = np.arange(4.0, 101.0)
    rng = np.random.default_rng(20261020)
    for ms in (np.round(np.arange(-4.0, 4.01, 0.1), 12),
               np.array([-3.0, -2.0, -1.5, -1.0, 0.0]),
               rng.uniform(-4.0, 4.0, 200)):
        rows = np.vstack([model_h("Cp", float(m), xs) for m in ms])
        column = model_h("Cp", ms[:, None], xs)
        assert np.array_equal(column.view(np.int64), rows.view(np.int64))


def test_ch1_reduces_at_m0():
    # at m = 0 the printed form collapses to a rational in x with
    # integer coefficients
    xs = np.array([4.0, 10.0, 57.0, 100.0])
    expected = ((xs**4 + 6 * xs**3 + 2 * xs**2)
                / (xs**4 + 8 * xs**3 + 12 * xs**2))
    assert model_h("Ch1", 0.0, xs) == pytest.approx(expected, rel=5e-16)


def test_l_model_formula():
    m, x = 1.5, 30.0
    s = x + m + 1.0
    expected = (math.sqrt(s * s + 4 * x) - s) / 2.0
    assert model_h("L", m, x) == pytest.approx(expected, rel=1e-15)


def test_w2_ch2_finite_at_x_100():
    # exponential-power forms are evaluated in log space; the h bracket
    # stays O(1) at the domain corner
    for tag in ("W2", "Ch2"):
        for m in (-4.0, 0.0, 4.0):
            val = float(model_h(tag, m, 100.0))
            assert 0.1 < val < 10.0


def test_univariate_domain_errors():
    for tag in ("J", "O", "SY"):
        with pytest.raises(ModelDomainError):
            eval_model(tag, EvalPoint(0.5, 10.0))
        assert model_info(tag).admits(0.0)


def test_x_model_domain():
    assert eval_model("X", EvalPoint(0.5, 10.0)) > 0.0
    with pytest.raises(ModelDomainError):
        eval_model("X", EvalPoint(0.3, 10.0))
    assert set(X_MODEL_ROWS) == {-1.0, -0.5, 0.0, 0.5, 1.0, 2.0}


def test_domain_rule_records():
    assert model_info("J").univariate and not model_info("X").univariate
    assert model_info("G").lines((-4.0, 0.3)) == (-4.0, 0.3)
    assert model_info("SY").label == "m = 0 only"
    # a column is checked row by row; the error names the first bad m
    with pytest.raises(ModelDomainError, match="m=0.5; allowed: m = 0$"):
        model_h("SY", np.array([[0.0], [0.5]]), np.array([10.0]))


def test_unknown_tag():
    with pytest.raises(KeyError):
        model_info("nope")


def test_bundled_aliases_match_coefficient_files():
    from tempint.rational import paper_approximant
    p = EvalPoint(1.0, 25.0)
    for n in (1, 2, 3, 4):
        r = paper_approximant(n)
        ratio = r.numer.eval(p.m, p.x) / r.denom.eval(p.m, p.x)
        assert eval_model(f"G{n}", p) == pytest.approx(
            math.exp(-p.x - 3.0 * math.log(p.x)) * ratio, rel=1e-15)


def test_tag_and_approximant_share_one_path():
    from tempint.harness import EvalGrid, report, vyazovkin_segment
    from tempint.rational import paper_approximant
    r4 = paper_approximant(4)
    for e, t_lo, t_hi in ((5000.0, 300.0, 310.0), (20000.0, 250.0, 4000.0)):
        assert (vyazovkin_segment(e, t_lo, t_hi, "G4")
                == vyazovkin_segment(e, t_lo, t_hi, r4))
    grid = EvalGrid.from_spec("coarse")
    assert np.array_equal(report("G3", grid).eps,
                          report(paper_approximant(3), grid).eps)
    xs = np.array(grid.x_values)
    for m in (-4.0, 0.0, 2.5):
        row = model_h(r4, m, xs)
        for k, x in enumerate(grid.x_values):
            assert model_h(r4, m, x) == row[k]


def test_eval_model_pole_error():
    from tempint.rational import BivariatePoly, PoleError, RationalApproximant
    r = RationalApproximant(
        BivariatePoly(1, [1.0, 0.0, 0.0]),
        BivariatePoly(1, [-10.0, 1.0, 0.0]))   # Q = x - 10
    with pytest.raises(PoleError):
        eval_model(r, EvalPoint(0.0, 10.0))
