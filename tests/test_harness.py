import csv
import io
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from tempint import models
from tempint.harness import (
    EvalGrid,
    GRID_PRESETS,
    compare,
    oracle_h_row,
    render_comparison_csv,
    render_comparison_text,
    render_per_point_csv,
    report,
    resolve_model_list,
    vyazovkin_segment,
)
from tempint.models import ModelDomainError
from tempint.oracle import DomainError
from tempint.rational import load_coeffs, paper_approximant, save_coeffs

# Frozen regression constant: direct adaptive quadrature at rel_tol
# 1e-14 of the exp(-E/RT) dT segment for E/R = 10000 K, T in [500, 520].
VYAZOVKIN_10000_500_520 = 6.2372353177521454e-08


class TestGrids:
    def test_preset_cardinalities(self):
        assert EvalGrid.from_spec("paper-eval").size == 7857
        assert EvalGrid.from_spec("paper-narrow").size == 41 * 97
        assert EvalGrid.from_spec("arrhenius").size == 97

    def test_endpoints_inclusive(self):
        g = EvalGrid.from_spec("paper-eval")
        assert g.m_values[0] == -4.0 and g.m_values[-1] == 4.0
        assert g.x_values[0] == 4.0 and g.x_values[-1] == 100.0

    def test_spec_mini_language(self):
        g = EvalGrid.from_spec("m=-2:-2:1,x=4:100:1")
        assert g.m_values == (-2.0,)
        assert len(g.x_values) == 97

    def test_bad_specs(self):
        for bad in ("m=1:2", "y=1:2:1,x=4:100:1", "m=1:2:0,x=4:100:1",
                    "m=1:2:1", "m=2:1:1,x=4:100:1"):
            with pytest.raises(ValueError):
                EvalGrid.from_spec(bad)

    @pytest.mark.parametrize("spec", [
        "m=nan:1:1,x=4:100:1", "m=0:inf:1,x=4:100:1", "m=-inf:1:1,x=4:100:1",
        "m=0:1:inf,x=4:100:1", "m=0:1:nan,x=4:100:1", "m=0:1:1,x=4:nan:1",
    ])
    def test_non_finite_range_rejected(self, spec):
        with pytest.raises(ValueError, match="non-finite"):
            EvalGrid.from_spec(spec)

    def test_refined(self):
        g = EvalGrid.from_spec("arrhenius").refined(4)
        assert len(g.x_values) == 4 * 96 + 1
        assert g.x_values[0] == 4.0 and g.x_values[-1] == 100.0


class TestDeviation:
    def test_exact_model_zero_deviation(self):
        # Gorbachev is exact at m = -2
        rep = report("G", EvalGrid((-2.0,), (10.0,)))
        assert rep.eps_max_abs == pytest.approx(0.0, abs=1e-12)

    def test_g4_worst_point(self, paper_eval_grid):
        rep = report("G4", paper_eval_grid)
        assert rep.eps_max_abs == pytest.approx(6.18e-7, rel=0.05)

    def test_sy_worst_point(self, arrhenius_grid):
        rep = report("SY", arrhenius_grid)
        assert rep.eps_max_abs == pytest.approx(8.15e-5, rel=0.02)


class TestReport:
    def test_aggregates_consistent(self, arrhenius_grid):
        rep = report("J", arrhenius_grid)
        assert rep.eps_max_abs == float(np.abs(rep.eps).max())
        assert rep.sse == float((rep.eps * rep.eps).sum())
        assert rep.sse >= rep.eps_max_abs**2
        assert rep.sse <= rep.eps.size * rep.eps_max_abs**2

    def test_ch4_narrow(self):
        rep = report("Ch4", EvalGrid.from_spec("paper-narrow"))
        assert rep.sse == pytest.approx(1.03e-2, rel=0.05)
        assert rep.eps_max_abs == pytest.approx(1.88e-2, rel=0.05)

    def test_cs_full(self, paper_eval_grid):
        rep = report("Cs", paper_eval_grid)
        assert rep.sse == pytest.approx(1.02e-2, rel=0.05)
        assert rep.eps_max_abs == pytest.approx(3.60e-2, rel=0.05)

    def test_g1_full(self, paper_eval_grid):
        rep = report("G1", paper_eval_grid)
        assert rep.eps_max_abs == pytest.approx(1.12e-2, rel=0.05)

    def test_narrow_le_full(self):
        narrow = EvalGrid.from_spec("paper-narrow")
        full = EvalGrid.from_spec("paper-eval")
        for tag in ("G", "Ch4", "L", "G2"):
            assert (report(tag, narrow).eps_max_abs
                    <= report(tag, full).eps_max_abs)

    def test_univariate_model_on_bivariate_grid_is_hard_error(self):
        with pytest.raises(ModelDomainError):
            report("J", EvalGrid.from_spec("paper-eval"))

    def test_x_restricted_with_footnote(self):
        rep = report("X", EvalGrid.from_spec("paper-narrow"))
        assert rep.footnote
        assert rep.m_lines == (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
        assert rep.eps_max_abs == pytest.approx(6.14e-4, rel=0.05)

    @pytest.mark.parametrize("preset", sorted(GRID_PRESETS))
    def test_whole_grid_equals_row_stack(self, preset, tmp_path):
        # report evaluates each model over the whole grid in one call; its
        # eps must equal the rows evaluated one m at a time, bit for bit
        grid = EvalGrid.from_spec(preset)
        path = tmp_path / "g3.coeff"
        save_coeffs(paper_approximant(3), path)
        tags = [tag for tag in (*models.ALL_TAGS, "SY88")
                if (any if tag == "X" else all)(
                    models.admits_m(tag, m) for m in grid.m_values)]
        assert "Cp" in tags and "G4" in tags
        xs = np.array(grid.x_values)
        for model in (*tags, load_coeffs(path)):
            rep = report(model, grid)
            rows = np.array([models.model_h(model, m, xs)
                             for m in rep.m_lines])
            expected = rows / oracle_h_row(rep.m_lines, grid.x_values) - 1.0
            assert np.array_equal(rep.eps.view(np.int64),
                                  expected.view(np.int64)), model


class TestCompare:
    def test_arrhenius_ordering(self, arrhenius_grid):
        reports = compare(["J", "O", "SY", "G1", "G2", "G3", "G4"],
                          arrhenius_grid)
        labels = [r.model for r in reports]
        # ascending max deviation per the published comparison
        assert labels.index("G4") < labels.index("G3") < labels.index("O") \
            < labels.index("J") < labels.index("SY")

    def test_single_point_zero_row(self):
        reports = compare(["G"], EvalGrid.from_spec("m=-2:-2:1,x=10:10:1"))
        assert reports[0].eps_max_abs == pytest.approx(0.0, abs=1e-12)

    def test_all_resolution(self):
        full = EvalGrid.from_spec("paper-eval")
        tags = resolve_model_list("all", full)
        assert "J" not in tags and "X" in tags and "G4" in tags
        arrh = EvalGrid.from_spec("arrhenius")
        assert "J" in resolve_model_list("all", arrh)

    def test_empty_list(self, arrhenius_grid):
        with pytest.raises(ValueError):
            compare([], arrhenius_grid)

    def test_renderings(self, arrhenius_grid):
        reports = compare(["J", "SY"], arrhenius_grid)
        text = render_comparison_text(reports)
        assert "SY" in text and "eps" in text.lower()
        csv = render_comparison_csv(reports)
        assert csv.splitlines()[0] == "model,grid,points,sse,eps_max,arg_m,arg_x"
        per_point = render_per_point_csv(reports[0])
        assert per_point.splitlines()[0] == "model,m,x,g_oracle,g_model,eps"
        assert len(per_point.splitlines()) == 98

    def test_csv_quotes_custom_grid_spec(self):
        spec = "m=-1:1:0.5,x=5:90:5"
        reports = compare(["G", "C1"], EvalGrid.from_spec(spec))
        rows = list(csv.reader(io.StringIO(render_comparison_csv(reports))))
        assert len(rows) == 3
        for row in rows:
            assert len(row) == 7
        assert [row[1] for row in rows[1:]] == [spec, spec]


class TestVyazovkin:
    def test_zero_interval(self):
        assert vyazovkin_segment(10000.0, 500.0, 500.0) == 0.0

    def test_frozen_constant(self):
        val = vyazovkin_segment(10000.0, 500.0, 520.0)
        assert val == pytest.approx(VYAZOVKIN_10000_500_520, rel=1e-10)

    def test_prefactor_linearity(self):
        # doubling E/R with both temperatures doubled keeps every x = E/RT
        # unchanged, so the result scales by exactly the prefactor
        base = vyazovkin_segment(10000.0, 500.0, 520.0)
        doubled = vyazovkin_segment(20000.0, 1000.0, 1040.0)
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_positive(self):
        assert vyazovkin_segment(8000.0, 400.0, 450.0) > 0.0

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            vyazovkin_segment(10000.0, 50.0, 60.0)   # x far above 100
        with pytest.raises(DomainError):
            vyazovkin_segment(10000.0, 0.0, 500.0)

    def test_model_mode_close_to_oracle(self):
        oracle_val = vyazovkin_segment(10000.0, 500.0, 520.0)
        g4_val = vyazovkin_segment(10000.0, 500.0, 520.0, model="G4")
        assert g4_val == pytest.approx(oracle_val, rel=1e-5)

    def test_random_sweep_vs_direct_quadrature(self):
        rng = random.Random(20260823)
        for _ in range(25):
            e_over_r = rng.uniform(5000.0, 40000.0)
            t_lo = rng.uniform(e_over_r / 90.0, e_over_r / 10.0)
            t_hi = t_lo * rng.uniform(1.001, min(1.5, (e_over_r / 4.3) / t_lo))
            if not 4.0 <= e_over_r / t_hi <= 100.0:
                continue
            expected, _ = quad(lambda t: math.exp(-e_over_r / t), t_lo, t_hi,
                               epsabs=0.0, epsrel=1e-13)
            got = vyazovkin_segment(e_over_r, t_lo, t_hi)
            assert got == pytest.approx(expected, rel=1e-10)
