"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.  The fitting criteria solve LPs on the full
default grid and take a few minutes.
"""

import math
import pathlib
import random

import numpy as np
import pytest
from scipy.integrate import quad

from tempint.cli import main
from tempint.fitter import (
    BISECTION_TOL_ABS,
    FitGrid,
    FitProblem,
    WarmStart,
    bisect_fit,
    build_feasibility,
    check_feasible,
)
from tempint.harness import EvalGrid, report, vyazovkin_segment
from tempint.oracle import EvalPoint, g_cf, g_quad, h
from tempint.rational import save_coeffs
from tempint.tables import TABLE5, TABLE10_X_EPS_MAX, reproduce_all

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _announce(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_cross_validation(paper_eval_grid):
    worst = 0.0
    for m in paper_eval_grid.m_values:
        for x in paper_eval_grid.x_values:
            point = EvalPoint(m, x)
            worst = max(worst, abs(g_cf(point) / g_quad(point) - 1.0))
    closed = {
        -2.0: lambda x: 1.0,
        -3.0: lambda x: (1.0 + x) / x,
        -4.0: lambda x: (x * x + 2.0 * x + 2.0) / (x * x),
    }
    worst_closed = 0.0
    for m, form in closed.items():
        for x in paper_eval_grid.x_values:
            hv = h(EvalPoint(m, x))
            worst_closed = max(worst_closed, abs(hv / form(x) - 1.0))
    ok = worst < 1e-12 and worst_closed < 1e-12
    _announce(1, ok, f"cf-vs-quad worst {worst:.2e}, "
                     f"closed-form worst {worst_closed:.2e}")


def _table(name):
    """The cells of one table, and the Table 7 ordering flag."""
    cells, ordered = reproduce_all()
    return [c for c in cells if c.table == name], ordered


def test_criterion_2_table5_regression():
    cells, _ = _table("table5")
    bad = [c for c in cells if not c.ok]
    detail = "; ".join(c.line() for c in bad) or \
        f"all {len(cells)} cells within tolerance"
    _announce(2, not bad, detail)


def test_criterion_3_table7_regression():
    cells, ordered = _table("table7")
    baseline = [c for c in cells if c.row in ("J", "O", "SY")]
    bad = [c for c in baseline if not c.ok]
    detail = "; ".join(c.line() for c in bad)
    if not detail:
        detail = (f"J/O/SY within 2%, ordering G4 < G3 < O < J < SY "
                  f"{'holds' if ordered else 'VIOLATED'}")
    _announce(3, not bad and ordered, detail)


def test_criterion_4_table10_regression():
    cells, _ = _table("table10")
    literature = [c for c in cells if c.row not in ("G1", "G2", "G3", "G4")]
    bad = [c for c in literature if not c.ok]
    detail = "; ".join(c.line() for c in bad) or \
        f"{len(literature)} literature cells within 5% " \
        f"(incl. X at {TABLE10_X_EPS_MAX:.2E})"
    _announce(4, not bad, detail)


@pytest.mark.parametrize("degree", [1, 2])
def test_criterion_5_fitter_reproduction(degree):
    grid = FitGrid.from_eval_grid(EvalGrid.from_spec("paper-eval"))
    problem = FitProblem(degree=degree, grid=grid)
    result = bisect_fit(problem)
    target = TABLE5[degree][0]
    closed = result.u_minus >= result.u_plus - max(
        BISECTION_TOL_ABS, problem.bisection_tol_rel * result.u_plus)
    # the 4x denser grid may not inflate the deviation by more than the
    # empirically measured 20% discretization gap
    fine = report(result.approximant,
                  EvalGrid.from_spec("m=-4:4:0.025,x=4:100:0.25")).eps_max_abs
    ok = (closed and not result.pole_warning
          and result.achieved_dev <= 1.1 * target
          and fine <= 1.2 * result.achieved_dev)
    _announce(5, ok,
              f"n={degree}: achieved {result.achieved_dev:.3e} "
              f"(fine {fine:.3e}) vs published "
              f"{target:.2e} (+10% bound {1.1 * target:.3e}), "
              f"{result.iterations} differential-correction steps")


# achieved_dev bounds just above what the bisection fitter reached on
# paper-eval (2.3143e-7 and 2.3531e-9, later 2.0532e-9; differential
# correction reaches 2.3109e-7 and 1.5711e-9), far below the published
# 1.72e-6 and 6.18e-7
EXPLORATORY_DEV_BOUND = {3: 2.32e-7, 4: 2.37e-9}


@pytest.mark.parametrize("degree", [3, 4])
def test_criterion_5_exploratory_degrees(degree, tmp_path):
    grid = FitGrid.from_eval_grid(EvalGrid.from_spec("paper-eval"))
    result = bisect_fit(FitProblem(degree=degree, grid=grid))
    # the files ``tempint fit --grid paper-eval`` writes for this fit
    golden = GOLDEN / f"fit-n{degree}-paper-eval"
    save_coeffs(result.approximant, tmp_path / "c.coeff")
    assert ((tmp_path / "c.coeff").read_bytes()
            == golden.with_suffix(".coeff").read_bytes())
    assert result.report_text() == golden.with_suffix(".report").read_text(
        encoding="utf-8")
    target = TABLE5[degree][0]
    bound = EXPLORATORY_DEV_BOUND[degree]
    _announce(5, result.achieved_dev <= bound,
              f"n={degree} exploratory: achieved {result.achieved_dev:.3e} "
              f"(bound {bound:.3e}, published {target:.2e})")


def test_criterion_6_bisection_properties(cold_feasible):
    grid = FitGrid.from_eval_grid(EvalGrid.from_spec("coarse"))
    problem = FitProblem(degree=1, grid=grid)
    # feasibility monotone in u on sampled pairs
    monotone = True
    verdicts = {u: check_feasible(build_feasibility(problem, u),
                                  WarmStart()) is not None
                for u in (1e-4, 5e-4, 2e-3, 8e-3, 5e-2, 1.0)}
    us = sorted(verdicts)
    for lo, hi in zip(us, us[1:]):
        if verdicts[lo] and not verdicts[hi]:
            monotone = False
    result = bisect_fit(problem)
    cert_plus = cold_feasible(build_feasibility(problem, result.u_plus))
    cert_minus = not cold_feasible(build_feasibility(problem, result.u_minus))
    # the lower end is the stopping tolerance below u_plus
    width = result.u_minus >= result.u_plus - max(
        BISECTION_TOL_ABS, problem.bisection_tol_rel * result.u_plus)
    ok = monotone and cert_plus and cert_minus and width
    _announce(6, ok,
              f"monotone={monotone} cert(u+)={cert_plus} "
              f"cert(u-)={cert_minus} width={width}")


def test_criterion_7_vyazovkin_sweep():
    rng = random.Random(42)
    cases = 0
    worst = 0.0
    while cases < 100:
        e_over_r = rng.uniform(5000.0, 50000.0)
        t_hi = rng.uniform(e_over_r / 95.0, e_over_r / 4.5)
        t_lo = t_hi / rng.uniform(1.0005, 1.4)
        x_hi = e_over_r / t_lo
        x_lo = e_over_r / t_hi
        if not (4.0 <= x_lo and x_hi <= 100.0):
            continue
        expected, _ = quad(lambda t: math.exp(-e_over_r / t), t_lo, t_hi,
                           epsabs=0.0, epsrel=1e-13)
        got = vyazovkin_segment(e_over_r, t_lo, t_hi)
        worst = max(worst, abs(got / expected - 1.0))
        cases += 1
    _announce(7, worst < 1e-10, f"100 seeded cases, worst rel diff {worst:.2e}")


def test_criterion_8_cmd_tables_exit_0(capsys):
    code = main(["tables"])
    out = capsys.readouterr().out
    with capsys.disabled():
        _announce(8, code == 0,
                  f"tempint tables exit code {code}, "
                  f"{out.count('[PASS]')} cells pass, "
                  f"{out.count('[FAIL]')} fail")
