import copy

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from tempint import fitter
from tempint.fitter import (
    FitGrid,
    FitProblem,
    bisect_fit,
    build_feasibility,
    check_feasible,
)
from tempint.harness import EvalGrid, report
from tempint.rational import paper_approximant


@pytest.fixture(scope="module")
def coarse_fit_grid():
    return FitGrid.from_eval_grid(EvalGrid.from_spec("coarse"))


@pytest.fixture(scope="module")
def single_point_grid():
    return FitGrid.from_eval_grid(EvalGrid.from_spec("m=0:0:1,x=10:10:1"))


class TestBuildFeasibility:
    def test_row_count(self, coarse_fit_grid):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        system = build_feasibility(problem, 0.01)
        assert system.a_ub.shape == (3 * coarse_fit_grid.size, 12)

    def test_single_point_rows(self, single_point_grid):
        problem = FitProblem(degree=1, grid=single_point_grid)
        u = 0.25
        system = build_feasibility(problem, u)
        assert system.a_ub.shape == (3, 6)
        h0 = single_point_grid.h[0]
        hi, lo = (1.0 + u) * h0, (1.0 - u) * h0
        # rows phi . a - (1 + u) h0 phi . b <= 0 and
        # -phi . a + (1 - u) h0 phi . b <= 0, columns unscaled
        unscaled = system.a_ub * system.col_scale
        np.testing.assert_allclose(unscaled[0], [1, 10, 0, -hi, -10 * hi, 0],
                                   rtol=1e-12)
        np.testing.assert_allclose(unscaled[1], [-1, -10, 0, lo, 10 * lo, 0],
                                   rtol=1e-12)
        np.testing.assert_allclose(unscaled[2], [0, 0, 0, -1, -10, 0],
                                   rtol=1e-12)
        np.testing.assert_array_equal(system.b_ub,
                                      [0.0, 0.0, -fitter.DENOM_FLOOR])

    def test_negative_u_rejected(self, coarse_fit_grid):
        with pytest.raises(ValueError):
            build_feasibility(FitProblem(degree=1, grid=coarse_fit_grid), -0.1)


class TestCheckFeasible:
    def test_u_1_relative_feasible(self, coarse_fit_grid):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        vec = check_feasible(build_feasibility(problem, 1.0))
        assert vec is not None and len(vec) == 6

    def test_u_0_two_targets_infeasible(self):
        # a degree-1 ratio cannot interpolate 97 distinct targets exactly
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("arrhenius"))
        problem = FitProblem(degree=1, grid=grid)
        assert check_feasible(build_feasibility(problem, 0.0)) is None

    def test_witness_satisfies_rows(self, coarse_fit_grid):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        system = build_feasibility(problem, 0.01)
        vec = check_feasible(system)
        rows = (system.a_ub * system.col_scale) @ vec
        assert np.all(rows <= system.b_ub + 1e-7)

    def test_initial_witness_feasible(self, coarse_fit_grid, monkeypatch):
        # the first bracket needs no LP: P = 0, Q = DENOM_FLOOR satisfies
        # every row at its upper end, exactly
        monkeypatch.setattr(fitter, "DENOM_FLOOR", 0.5)
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        u_start, witness = fitter._initial_level(problem)
        assert u_start == 1.0
        system = build_feasibility(problem, u_start)
        assert np.all(system.a_ub @ (witness * system.col_scale)
                      <= system.b_ub)

    def test_monotonicity_in_u(self, coarse_fit_grid):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        feasible_at = {}
        for u in (1e-4, 1e-3, 1e-2, 1e-1):
            feasible_at[u] = check_feasible(
                build_feasibility(problem, u)) is not None
        # once feasible, stays feasible at every larger u
        us = sorted(feasible_at)
        seen_feasible = False
        for u in us:
            if seen_feasible:
                assert feasible_at[u]
            seen_feasible = seen_feasible or feasible_at[u]
        assert feasible_at[1e-1]


class TestBisectFit:
    def test_constant_target_line(self):
        # h is identically 1 on the m = -2 line: any degree fits exactly
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("m=-2:-2:1,x=4:100:1"))
        result = bisect_fit(FitProblem(degree=1, grid=grid))
        assert result.converged
        assert result.u_plus < 1e-9
        assert result.achieved_dev < 1e-9

    def test_coarse_degree1(self, coarse_fit_grid):
        result = bisect_fit(FitProblem(degree=1, grid=coarse_fit_grid))
        assert result.converged
        assert not result.pole_warning
        # coarse-grid optimum cannot beat the paper level by much and the
        # known-achievable published level bounds it from above
        assert result.u_plus <= 1.1 * 1.12e-2
        assert result.achieved_dev <= result.u_plus + 1e-7

    def test_certificate(self, coarse_fit_grid):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        result = bisect_fit(problem)
        assert check_feasible(
            build_feasibility(problem, result.u_plus)) is not None
        assert check_feasible(
            build_feasibility(problem, result.u_minus)) is None

    def test_bracket_width(self, coarse_fit_grid):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        result = bisect_fit(problem)
        assert 0.0 < result.u_minus <= result.u_plus
        assert result.u_plus - result.u_minus <= max(
            fitter.BISECTION_TOL_ABS,
            problem.bisection_tol_rel * result.u_plus)

    def test_normalization(self, coarse_fit_grid):
        result = bisect_fit(FitProblem(degree=1, grid=coarse_fit_grid))
        b00 = result.approximant.denom.coeff(0, 0)
        assert b00 == pytest.approx(1.0)

    def test_degree_monotonicity_coarse(self, coarse_fit_grid):
        u1 = bisect_fit(FitProblem(degree=1, grid=coarse_fit_grid)).u_plus
        u2 = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid)).u_plus
        assert u2 <= u1 + 1e-4 * u1

    def test_non_convergence_flag(self, coarse_fit_grid, monkeypatch):
        monkeypatch.setattr(fitter, "MAX_BISECTIONS", 3)
        result = bisect_fit(FitProblem(degree=1, grid=coarse_fit_grid))
        assert not result.converged
        assert result.iterations == 3

    @pytest.mark.parametrize("settings", [
        {"bisection_tol_rel": float("nan")},
        {"bisection_tol_rel": float("inf")},
        {"bisection_tol_rel": 1.0},
        {"bisection_tol_rel": -1e-4},
    ])
    def test_bad_settings_rejected(self, coarse_fit_grid, settings):
        with pytest.raises(ValueError):
            FitProblem(degree=1, grid=coarse_fit_grid, **settings)


class TestExchange:
    def test_paper_eval_degree2_certified(self):
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("paper-eval"))
        problem = FitProblem(degree=2, grid=grid)
        result = bisect_fit(problem)
        assert result.converged
        assert result.active_points < grid.size
        assert check_feasible(
            build_feasibility(problem, result.u_plus)) is not None
        assert check_feasible(
            build_feasibility(problem, result.u_minus)) is None
        assert result.u_minus <= result.achieved_dev
        assert result.achieved_dev <= 1.1 * 3.7095e-5

    def test_wrong_subset_verdicts_fall_back(self, coarse_fit_grid,
                                             monkeypatch):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        with monkeypatch.context() as patch:
            # a starting subset larger than the grid: plain bisection
            patch.setattr(fitter, "SUBSET_PER_COEFF", coarse_fit_grid.size)
            plain = bisect_fit(problem)
        false_below = 2.0 * plain.u_plus
        real_check = fitter.check_feasible
        full_grid_levels = []

        def lying_check(system, warm=None):
            # subset systems call every level below 2 u* infeasible,
            # though the full grid is feasible down to u*
            subset = system.a_ub.shape[0] < 3 * coarse_fit_grid.size
            if subset and system.u < false_below:
                return None
            if not subset:
                full_grid_levels.append(system.u)
            return real_check(system, warm)

        monkeypatch.setattr(fitter, "check_feasible", lying_check)
        result = bisect_fit(problem)
        assert real_check(build_feasibility(problem, result.u_minus)) is None
        # the contradiction restarts plain bisection on the whole grid
        assert result.active_points == coarse_fit_grid.size
        assert (result.u_minus, result.u_plus) == (plain.u_minus,
                                                   plain.u_plus)
        assert result.iterations > plain.iterations
        # levels above the confirming witness's need no LP
        assert min(full_grid_levels) < false_below
        assert len(full_grid_levels) < plain.lp_solves

    def test_small_grid_is_plain_bisection(self, monkeypatch):
        # 65 points are fewer than the 16 x 6 starting subset of degree 1,
        # so every level is one full-grid LP, as in plain bisection
        grid = FitGrid.from_eval_grid(
            EvalGrid.from_spec("m=-1:1:0.5,x=4:100:8"))
        real_solve = fitter._solve_phase1
        calls = []

        def counting_solve(system, warm):
            calls.append(system.a_ub.shape[0])
            return real_solve(system, warm)

        monkeypatch.setattr(fitter, "_solve_phase1", counting_solve)
        result = bisect_fit(FitProblem(degree=1, grid=grid))
        assert result.active_points == grid.size
        assert len(calls) == result.lp_solves
        assert result.lp_solves == result.iterations
        assert set(calls) == {3 * grid.size}
        assert result.u_plus - result.u_minus == pytest.approx(
            1.0 / 2.0 ** result.iterations, rel=1e-9)


def _verdicts(system, warm, monkeypatch):
    """Feasible or not, by a warm solve that may not fall back to
    ``linprog``, and by a cold solve."""
    def no_cold_solve(*args, **kwargs):
        raise AssertionError("the warm solve did not end optimal")

    with monkeypatch.context() as patch:
        patch.setattr(fitter, "linprog", no_cold_solve)
        warm_feasible = check_feasible(system, warm) is not None
    return warm_feasible, check_feasible(system) is not None


class TestWarmStart:
    def test_same_verdicts_along_a_bisection(self, coarse_fit_grid,
                                             monkeypatch):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        warm = fitter.WarmStart(coarse_fit_grid.size)
        lo, hi, seen = 0.0, 1.0, set()
        for _ in range(40):
            u = 0.5 * (lo + hi)
            warm_feasible, feasible = _verdicts(
                build_feasibility(problem, u), warm, monkeypatch)
            assert warm_feasible == feasible, u
            seen.add(feasible)
            lo, hi = (lo, u) if feasible else (u, hi)
        assert seen == {True, False}

    def test_same_verdicts_as_the_subset_grows(self, coarse_fit_grid,
                                               monkeypatch):
        # LPs on S plus new points start from the basis on S, with the
        # rows of the new points basic; a copy's solve leaves that basis
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        size = coarse_fit_grid.size
        subset = np.arange(0, size, 4)
        grown = np.union1d(subset, np.arange(1, size, 8))
        u_star = bisect_fit(problem).u_plus
        for u in (0.9 * u_star, 1.1 * u_star):
            warm = fitter.WarmStart(size)
            check_feasible(build_feasibility(problem, u, subset), warm)
            stored = warm.row_status
            assert np.all(np.delete(stored, subset, axis=1)
                          == fitter.HighsBasisStatus.kBasic)
            assert _verdicts(build_feasibility(problem, u), copy.copy(warm),
                             monkeypatch) == (u > u_star, u > u_star)
            assert warm.row_status is stored
            warm_feasible, feasible = _verdicts(
                build_feasibility(problem, u, grown), warm, monkeypatch)
            assert warm_feasible == feasible, u

    def test_failed_warm_solve_falls_back(self, coarse_fit_grid,
                                          monkeypatch):
        # an LP the warm solve does not end optimal goes to linprog: tight
        # tolerances first, then the defaults
        system = build_feasibility(
            FitProblem(degree=2, grid=coarse_fit_grid), 0.01)
        options = []

        def failing_linprog(*args, **kwargs):
            options.append(kwargs.get("options"))
            return OptimizeResult(status=4, message="numerical difficulties")

        monkeypatch.setattr(fitter.WarmStart, "solve",
                            lambda self, a, b_ub, points: None)
        monkeypatch.setattr(fitter, "linprog", failing_linprog)
        with pytest.raises(fitter.FitError, match="status 4"):
            check_feasible(system, fitter.WarmStart(coarse_fit_grid.size))
        assert options == [fitter.TIGHT_OPTIONS, None]


class TestVerifyFit:
    def test_fine_factor_1_reproduces(self, coarse_fit_grid):
        # the deviation report of the fitted approximant on the fit grid
        # is achieved_dev exactly, also for a refined grid and for one
        # built without a spec
        refined = EvalGrid.from_spec("m=-1:1:1,x=4:100:24").refined(2)
        specless = EvalGrid((0.0, 1.0), (4.0, 50.0, 100.0))
        for grid in (coarse_fit_grid, FitGrid.from_eval_grid(refined),
                     FitGrid.from_eval_grid(specless)):
            for degree in (1, 2):
                result = bisect_fit(FitProblem(degree=degree, grid=grid))
                rep = report(result.approximant, grid.grid)
                assert rep.eps_max_abs == result.achieved_dev, (grid, degree)

    def test_fine_factor_4_structure(self, coarse_fit_grid):
        # the < 20% inflation contract holds on the default fit grid and
        # is asserted with the acceptance fits; the coarse smoke grid only
        # gets structural checks
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert result.denom_min > 0.0 and not result.pole_warning
        fine = coarse_fit_grid.grid.refined(4)
        assert report(result.approximant, fine).eps_max_abs == (
            result.achieved_dev_fine)

    def test_bundled_g3_verification(self):
        # published degree-3 approximant on the evaluation grid
        rep = report("G3", EvalGrid.from_spec("paper-eval"))
        assert rep.eps_max_abs == pytest.approx(1.72e-6, rel=0.05)
