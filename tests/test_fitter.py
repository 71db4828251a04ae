import numpy as np
import pytest

from tempint import fitter
from tempint.fitter import (
    FitGrid,
    FitProblem,
    bisect_fit,
    build_feasibility,
    check_feasible,
    verify_fit,
)
from tempint.harness import EvalGrid
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
        problem = FitProblem(degree=1, grid=single_point_grid,
                             weighting="absolute")
        system = build_feasibility(problem, 0.0)
        assert system.a_ub.shape == (3, 6)
        h0 = single_point_grid.h[0]
        # row (i): phi . a - h * phi . b <= 0, columns unscaled
        unscaled = system.a_ub * system.col_scale
        np.testing.assert_allclose(unscaled[0], [1, 10, 0, -h0, -10 * h0, 0],
                                   rtol=1e-12)
        np.testing.assert_allclose(unscaled[1], -unscaled[0], rtol=1e-12)
        np.testing.assert_allclose(unscaled[2], [0, 0, 0, -1, -10, 0],
                                   rtol=1e-12)
        assert system.b_ub[2] == -fitter.DENOM_FLOOR

    def test_relative_equals_absolute_where_h_is_1(self):
        # on the m = -2 line the target is exactly 1, so both weightings
        # emit identical rows
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("m=-2:-2:1,x=4:100:8"))
        u = 0.125
        rel = build_feasibility(FitProblem(degree=1, grid=grid,
                                           weighting="relative"), u)
        absol = build_feasibility(FitProblem(degree=1, grid=grid,
                                             weighting="absolute"), u)
        np.testing.assert_allclose(rel.a_ub, absol.a_ub, rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("weighting", ["relative", "absolute"])
    def test_initial_witness_feasible(self, coarse_fit_grid, weighting,
                                      monkeypatch):
        # the first bracket needs no LP: P = 0, Q = DENOM_FLOOR satisfies
        # every row at its upper end, exactly
        monkeypatch.setattr(fitter, "DENOM_FLOOR", 0.5)
        problem = FitProblem(degree=2, grid=coarse_fit_grid,
                             weighting=weighting)
        u_start, witness = fitter._initial_level(problem)
        assert u_start == (1.0 if weighting == "relative"
                           else coarse_fit_grid.h.max())
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

        def lying_check(system):
            # subset systems call every level below 2 u* infeasible,
            # though the full grid is feasible down to u*
            subset = system.a_ub.shape[0] < 3 * coarse_fit_grid.size
            if subset and system.u < false_below:
                return None
            if not subset:
                full_grid_levels.append(system.u)
            return real_check(system)

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
        # so every level is one full-grid LP, as in plain bisection; on
        # two CPUs the guessed LPs of infeasible levels come on top
        grid = FitGrid.from_eval_grid(
            EvalGrid.from_spec("m=-1:1:0.5,x=4:100:8"))
        real_linprog = fitter.linprog
        for cpus in (1, 2):
            calls = []

            def counting_linprog(*args, **kwargs):
                calls.append(kwargs["A_ub"].shape[0])
                return real_linprog(*args, **kwargs)

            monkeypatch.setattr(fitter, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(fitter, "linprog", counting_linprog)
            result = bisect_fit(FitProblem(degree=1, grid=grid))
            assert result.active_points == grid.size
            assert len(calls) == result.lp_solves + result.lp_speculative
            assert result.lp_solves == result.iterations
            assert (result.lp_speculative == 0) == (cpus == 1)
            assert set(calls) == {3 * grid.size}
            assert result.u_plus - result.u_minus == pytest.approx(
                1.0 / 2.0 ** result.iterations, rel=1e-9)


class TestPairStep:
    def test_same_fit_on_one_and_two_cpus(self, coarse_fit_grid,
                                          monkeypatch):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(fitter, "_usable_cpus", lambda: cpus)
            results.append(bisect_fit(problem))
        one, two = results
        assert one.lp_speculative == 0 < two.lp_speculative
        assert (two.u_minus, two.u_plus, two.iterations, two.lp_solves,
                two.active_points) == (one.u_minus, one.u_plus,
                                       one.iterations, one.lp_solves,
                                       one.active_points)
        assert two.approximant == one.approximant


class TestVerifyFit:
    def test_fine_factor_1_reproduces(self, coarse_fit_grid):
        # verification sweeps the fit grid itself, also for a refined
        # grid and for one built without a spec
        refined = EvalGrid.from_spec("m=-1:1:1,x=4:100:24").refined(2)
        specless = EvalGrid((0.0, 1.0), (4.0, 50.0, 100.0))
        for grid in (coarse_fit_grid, FitGrid.from_eval_grid(refined),
                     FitGrid.from_eval_grid(specless)):
            result = bisect_fit(FitProblem(degree=1, grid=grid))
            rep = verify_fit(result, 1)
            assert rep.grid_points == grid.size
            assert rep.max_dev == result.achieved_dev
            assert rep.near_extremal >= 1

    def test_fine_factor_4_structure(self, coarse_fit_grid):
        # the < 20% inflation contract holds on the default fit grid and
        # is asserted with the acceptance fits; the coarse smoke grid only
        # gets structural checks
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        rep = verify_fit(result, 4)
        assert rep.grid_points > coarse_fit_grid.size
        assert rep.denom_min > 0.0
        assert rep.max_dev == result.achieved_dev_fine

    def test_bundled_g3_verification(self):
        # published degree-3 approximant on the evaluation grid
        from tempint.harness import report
        rep = report("G3", EvalGrid.from_spec("paper-eval"))
        assert rep.eps_max_abs == pytest.approx(1.72e-6, rel=0.05)
