from types import SimpleNamespace

import numpy as np
import pytest

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


def bracket_closed(problem, result):
    """The bisection's stopping rule holds for the fit's bracket."""
    return result.u_plus - result.u_minus <= max(
        fitter.BISECTION_TOL_ABS, problem.bisection_tol_rel * result.u_plus)


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
        vec = check_feasible(build_feasibility(problem, 1.0),
                             fitter.WarmStart(coarse_fit_grid.size))
        assert vec is not None and len(vec) == 6

    def test_u_0_two_targets_infeasible(self):
        # a degree-1 ratio cannot interpolate 97 distinct targets exactly
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("arrhenius"))
        problem = FitProblem(degree=1, grid=grid)
        assert check_feasible(build_feasibility(problem, 0.0),
                              fitter.WarmStart(grid.size)) is None

    def test_witness_satisfies_rows(self, coarse_fit_grid):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        system = build_feasibility(problem, 0.01)
        vec = check_feasible(system, fitter.WarmStart(coarse_fit_grid.size))
        rows = (system.a_ub * system.col_scale) @ vec
        assert np.all(rows <= system.b_ub + 1e-7)

    def test_initial_witness_feasible(self, coarse_fit_grid, monkeypatch):
        # the first bracket needs no LP: the least-squares witness holds
        # every row at its upper end, Q >= DENOM_FLOOR included, at every
        # grid point
        monkeypatch.setattr(fitter, "DENOM_FLOOR", 0.5)
        for degree in (1, 2, 3, 4):
            problem = FitProblem(degree=degree, grid=coarse_fit_grid)
            u_start, witness = fitter._initial_level(problem)
            assert type(u_start) is float and 0.0 < u_start < 1e-1, degree
            system = build_feasibility(problem, u_start)
            assert np.all(system.a_ub @ (witness * system.col_scale)
                          <= system.b_ub + fitter.FEASIBILITY_TOL), degree
            approx = fitter._coeffs_to_approximant(witness, degree)
            dev, _ = fitter._deviation_on(approx, coarse_fit_grid)
            assert dev.max() == pytest.approx(u_start, rel=1e-9), degree

    @pytest.mark.parametrize("b_10", [-2.0, 2.0])
    def test_initial_level_falls_back(self, coarse_fit_grid, monkeypatch,
                                      b_10):
        # a least-squares witness whose Q is not positive on the grid
        # (Q = 1 - 2 x / 100 at x = 100), or whose deviation is not below
        # 1 (P = 0), gives the start u = 1, P = 0, Q = DENOM_FLOOR, which
        # holds there exactly
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        n_coeffs = 2 * len(problem.basis[1])
        # the solution vector lacks b_00; its x column of Q follows P's
        fit = np.zeros(n_coeffs - 1)
        fit[n_coeffs // 2] = b_10
        monkeypatch.setattr(fitter.np.linalg, "lstsq",
                            lambda *args, **kwargs: (fit,))
        u_start, witness = fitter._initial_level(problem)
        assert u_start == 1.0
        expected = np.zeros(n_coeffs)
        expected[n_coeffs // 2] = fitter.DENOM_FLOOR
        np.testing.assert_array_equal(witness, expected)
        system = build_feasibility(problem, u_start)
        assert np.all(system.a_ub @ (witness * system.col_scale)
                      <= system.b_ub)

    def test_monotonicity_in_u(self, coarse_fit_grid):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        feasible_at = {}
        for u in (1e-4, 1e-3, 1e-2, 1e-1):
            feasible_at[u] = check_feasible(
                build_feasibility(problem, u),
                fitter.WarmStart(coarse_fit_grid.size)) is not None
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
        problem = FitProblem(degree=1, grid=grid)
        result = bisect_fit(problem)
        assert bracket_closed(problem, result)
        assert result.u_plus < 1e-9
        assert result.achieved_dev < 1e-9

    def test_coarse_degree1(self, coarse_fit_grid):
        result = bisect_fit(FitProblem(degree=1, grid=coarse_fit_grid))
        assert not result.pole_warning
        # coarse-grid optimum cannot beat the paper level by much and the
        # known-achievable published level bounds it from above
        assert result.u_plus <= 1.1 * 1.12e-2
        assert result.achieved_dev <= result.u_plus + 1e-7

    def test_certificate(self, coarse_fit_grid, cold_feasible):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        result = bisect_fit(problem)
        assert cold_feasible(build_feasibility(problem, result.u_plus))
        assert not cold_feasible(build_feasibility(problem, result.u_minus))

    def test_bracket_width(self, coarse_fit_grid):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        result = bisect_fit(problem)
        assert 0.0 < result.u_minus <= result.u_plus
        assert bracket_closed(problem, result)

    def test_normalization(self, coarse_fit_grid):
        result = bisect_fit(FitProblem(degree=1, grid=coarse_fit_grid))
        b00 = result.approximant.denom.coeff(0, 0)
        assert b00 == pytest.approx(1.0)

    def test_degree_monotonicity_coarse(self, coarse_fit_grid):
        u1 = bisect_fit(FitProblem(degree=1, grid=coarse_fit_grid)).u_plus
        u2 = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid)).u_plus
        assert u2 <= u1 + 1e-4 * u1

    @pytest.mark.parametrize("settings", [
        {"bisection_tol_rel": float("nan")},
        {"bisection_tol_rel": float("inf")},
        {"bisection_tol_rel": 1.0},
        {"bisection_tol_rel": -1e-4},
        {"degree": 0},
        {"degree": 5},
    ])
    def test_bad_settings_rejected(self, coarse_fit_grid, settings):
        with pytest.raises(ValueError):
            FitProblem(grid=coarse_fit_grid, **{"degree": 1, **settings})


class TestExchange:
    def test_paper_eval_degree2_certified(self, cold_feasible):
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("paper-eval"))
        problem = FitProblem(degree=2, grid=grid)
        result = bisect_fit(problem)
        assert bracket_closed(problem, result)
        assert result.active_points < grid.size
        assert cold_feasible(build_feasibility(problem, result.u_plus))
        assert not cold_feasible(build_feasibility(problem, result.u_minus))
        assert result.u_minus <= result.achieved_dev
        assert result.achieved_dev <= 1.1 * 3.7095e-5

    def test_wrong_subset_verdicts_fall_back(self, coarse_fit_grid,
                                             monkeypatch, cold_feasible):
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        with monkeypatch.context() as patch:
            # a starting subset larger than the grid: plain bisection
            patch.setattr(fitter, "SUBSET_PER_COEFF", coarse_fit_grid.size)
            plain = bisect_fit(problem)
        # below u_start / 4, so that a restart skips two levels
        false_below = 1.25 * plain.u_plus
        assert false_below < fitter._initial_level(problem)[0] / 4.0
        real_check = fitter.check_feasible
        full_grid_levels = []

        def lying_check(system, warm):
            # subset systems call every level below 1.25 u* infeasible,
            # though the full grid is feasible down to u*
            subset = system.a_ub.shape[0] < 3 * coarse_fit_grid.size
            if subset and system.u < false_below:
                return None
            if not subset:
                full_grid_levels.append(system.u)
            return real_check(system, warm)

        # the confirmation calls WarmStart.solve, not check_feasible, so
        # it tells the truth, as the full-grid LP it replaces did
        real_confirm = fitter._confirm
        confirm_levels = []

        def recording_confirm(problem, u, in_s, warm):
            confirm_levels.append(u)
            return real_confirm(problem, u, in_s, warm)

        monkeypatch.setattr(fitter, "check_feasible", lying_check)
        monkeypatch.setattr(fitter, "_confirm", recording_confirm)
        result = bisect_fit(problem)
        assert not cold_feasible(build_feasibility(problem, result.u_minus))
        # the contradiction restarts plain bisection on the whole grid
        assert result.active_points == coarse_fit_grid.size
        assert (result.u_minus, result.u_plus) == (plain.u_minus,
                                                   plain.u_plus)
        assert result.iterations > plain.iterations
        # levels above the confirming witness's need no LP: every full-grid
        # LP comes after the restart, below the confirmation level
        assert len(confirm_levels) == 1
        assert min(full_grid_levels) < false_below
        assert max(full_grid_levels) < confirm_levels[0]
        assert len(full_grid_levels) < plain.lp_solves

    def test_one_confirmation_per_fit(self, coarse_fit_grid, monkeypatch):
        # S (204 of 425 points at the end) is not the whole grid, so the
        # fit confirms its lower end once, after the last pass on S
        real_confirm = fitter._confirm
        calls = []

        def recording_confirm(problem, u, in_s, warm):
            vec, solves = real_confirm(problem, u, in_s, warm)
            calls.append((u, vec, solves))
            return vec, solves

        monkeypatch.setattr(fitter, "_confirm", recording_confirm)
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert result.active_points < coarse_fit_grid.size
        [(u, vec, solves)] = calls
        assert u == result.u_minus and vec is None
        assert result.lp_solves == result.iterations + solves == 51

    def test_whole_grid_subset_needs_no_confirmation(self, coarse_fit_grid,
                                                     monkeypatch):
        # degree 4 has 30 coefficients: the starting S of 480 points is
        # the whole coarse grid, whose LPs need no confirmation
        def no_confirm(*args):
            raise AssertionError("confirmation on the whole grid")

        monkeypatch.setattr(fitter, "_confirm", no_confirm)
        result = bisect_fit(FitProblem(degree=4, grid=coarse_fit_grid))
        assert result.active_points == coarse_fit_grid.size
        assert result.lp_solves == result.iterations

    def test_small_grid_is_plain_bisection(self, solve_rows):
        # 65 points are fewer than the 16 x 6 starting subset of degree 1,
        # so every level is one full-grid LP, as in plain bisection
        grid = FitGrid.from_eval_grid(
            EvalGrid.from_spec("m=-1:1:0.5,x=4:100:8"))
        result = bisect_fit(FitProblem(degree=1, grid=grid))
        assert result.active_points == grid.size
        assert len(solve_rows) == result.lp_solves
        assert result.lp_solves == result.iterations
        assert set(solve_rows) == {3 * grid.size}
        u_start = fitter._initial_level(FitProblem(degree=1, grid=grid))[0]
        assert result.u_plus - result.u_minus == pytest.approx(
            u_start / 2.0 ** result.iterations, rel=1e-9)

    def test_confirmations_solve_no_full_grid_lp(self, paper_eval_grid,
                                                 solve_rows):
        grid = FitGrid.from_eval_grid(paper_eval_grid)
        result = bisect_fit(FitProblem(degree=2, grid=grid))
        assert len(solve_rows) == result.lp_solves > result.iterations
        assert max(solve_rows) < 3 * grid.size

    def test_confirm_by_row_generation(self, coarse_fit_grid, solve_rows,
                                       cold_feasible):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        size = coarse_fit_grid.size
        u_star = bisect_fit(problem).u_plus
        in_s = np.zeros(size, dtype=bool)
        in_s[::8] = True
        for u in (0.9 * u_star, 1.1 * u_star):
            solve_rows.clear()
            warm = fitter.WarmStart(size)
            vec, solves = fitter._confirm(problem, u, in_s, warm)
            full = build_feasibility(problem, u)
            assert (vec is not None) == (u > u_star) == cold_feasible(full)
            assert solves == len(solve_rows) > 1
            assert solve_rows[0] == 3 * in_s.sum()
            assert max(solve_rows) < 3 * size
            if vec is not None:
                # the witness holds on every grid row
                rows = (full.a_ub * full.col_scale) @ vec
                assert np.all(rows <= full.b_ub + fitter.FEASIBILITY_TOL)
            else:
                # the last LP's solution holds every row left out of it
                # within its slack, so it is the full-grid LP's optimum
                slack = warm.highs.getInfo().objective_function_value
                x = np.array(warm.highs.getSolution().col_value)
                assert not fitter._violators(
                    problem, x, u, warm.points,
                    slack + fitter.FEASIBILITY_TOL)[0].size
                # though not all within FEASIBILITY_TOL: at an infeasible
                # level the rows left out need only meet the slack
                assert fitter._violators(problem, x, u, warm.points,
                                         fitter.FEASIBILITY_TOL)[0].size
        # with S the whole grid, the confirmation is one full-grid LP
        solve_rows.clear()
        vec, solves = fitter._confirm(problem, 0.9 * u_star,
                                      np.ones(size, dtype=bool),
                                      fitter.WarmStart(size))
        assert vec is None
        assert solves == 1 and solve_rows == [3 * size]


@pytest.fixture
def verdicts(cold_feasible):
    """Feasible or not, by a warm solve and by the cold referee."""
    def both(system, warm):
        return check_feasible(system, warm) is not None, cold_feasible(system)
    return both


@pytest.fixture
def failing_runs(coarse_fit_grid):
    """A WarmStart that has solved one LP, whose next HiGHS runs return
    kError while ``fail`` pops True; every setBasis (with its basis) and
    run (with its tolerance) goes into ``calls``."""
    system = build_feasibility(
        FitProblem(degree=2, grid=coarse_fit_grid), 0.01)
    warm = fitter.WarmStart(coarse_fit_grid.size)
    check_feasible(system, warm)
    calls, fail = [], []
    key = "primal_feasibility_tolerance"

    class FailingRuns:
        def __init__(self, highs):
            self.highs, self.failed = highs, False

        def __getattr__(self, name):
            return getattr(self.highs, name)

        def setBasis(self, start):
            calls.append(("setBasis", start))
            return self.highs.setBasis(start)

        def run(self):
            calls.append(("run", self.highs.getOptionValue(key)[1]))
            self.failed = bool(fail) and fail.pop()
            if self.failed:
                return fitter.HighsStatus.kError
            return self.highs.run()

        def getModelStatus(self):
            if self.failed:
                return fitter.HighsModelStatus.kNotset
            return self.highs.getModelStatus()

    def warm_rungs(start):
        return [("setBasis", start), ("run", fitter.TIGHT_OPTIONS[key]),
                ("setBasis", start), ("run", fitter.DEFAULT_OPTIONS[key])]

    warm.highs = FailingRuns(warm.highs)
    return SimpleNamespace(system=system, warm=warm, calls=calls, fail=fail,
                           warm_rungs=warm_rungs)


class TestWarmStart:
    def test_same_verdicts_along_a_bisection(self, coarse_fit_grid,
                                             verdicts):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        warm = fitter.WarmStart(coarse_fit_grid.size)
        lo, hi, seen = 0.0, 1.0, set()
        for _ in range(40):
            u = 0.5 * (lo + hi)
            warm_feasible, feasible = verdicts(
                build_feasibility(problem, u), warm)
            assert warm_feasible == feasible, u
            seen.add(feasible)
            lo, hi = (lo, u) if feasible else (u, hi)
        assert seen == {True, False}

    def test_same_verdicts_as_the_subset_grows(self, coarse_fit_grid,
                                               verdicts):
        # LPs on S plus new points start from the basis on S, with the
        # rows of the new points basic: an exchange, then the whole grid,
        # as in a confirmation's last round
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        size = coarse_fit_grid.size
        subset = np.arange(0, size, 4)
        grown = np.union1d(subset, np.arange(1, size, 8))
        u_star = bisect_fit(problem).u_plus
        for u in (0.9 * u_star, 1.1 * u_star):
            warm = fitter.WarmStart(size)
            check_feasible(build_feasibility(problem, u, subset), warm)
            assert np.array_equal(warm.points, subset)
            assert len(warm.basis.row_status) == 3 * len(subset)
            warm_feasible, feasible = verdicts(
                build_feasibility(problem, u, grown), warm)
            assert warm_feasible == feasible, u
            # the statuses on S are now kept per point, the others basic
            assert np.all(np.delete(warm.row_status, subset, axis=1)
                          == fitter.HighsBasisStatus.kBasic)
            assert verdicts(build_feasibility(problem, u),
                            warm) == (u > u_star, u > u_star)
            assert np.array_equal(warm.points, np.arange(size))

    @pytest.mark.parametrize("u", [1e-6, 0.01])
    def test_resolve_starts_optimal(self, coarse_fit_grid, verdicts, u):
        # the LP just solved, solved again, starts from its optimal basis:
        # no simplex iteration and no cold solve
        system = build_feasibility(
            FitProblem(degree=2, grid=coarse_fit_grid), u)
        warm = fitter.WarmStart(coarse_fit_grid.size)
        feasible = check_feasible(system, warm) is not None
        assert warm.highs.getInfo().simplex_iteration_count > 0
        assert verdicts(system, warm) == (feasible, feasible)
        assert warm.highs.getInfo().simplex_iteration_count == 0

    def test_slack_is_never_negative(self, coarse_fit_grid):
        # t >= 0 is a bound of the LP, which HiGHS meets only within its
        # primal tolerance: a default-tolerance rung returned -6.8e-10
        system = build_feasibility(
            FitProblem(degree=2, grid=coarse_fit_grid), 0.01)
        warm = fitter.WarmStart(coarse_fit_grid.size)

        class NegativeObjective:
            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def getInfo(self):
                return SimpleNamespace(objective_function_value=-6.8e-10)

        warm.highs = NegativeObjective(warm.highs)
        slack, x = warm.solve(system)
        assert slack == 0.0
        assert len(x) == system.n_coeffs + 1
        assert check_feasible(system, warm) is not None

    @pytest.mark.parametrize("call", ["passModel", "setBasis"])
    def test_highs_errors_are_not_silent(self, coarse_fit_grid, call):
        # a model or basis HiGHS rejects raises
        system = build_feasibility(
            FitProblem(degree=2, grid=coarse_fit_grid), 0.01)
        warm = fitter.WarmStart(coarse_fit_grid.size)
        check_feasible(system, warm)

        class Rejecting:
            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                if name == call:
                    return lambda *args: fitter.HighsStatus.kError
                return getattr(self.highs, name)

        warm.highs = Rejecting(warm.highs)
        with pytest.raises(fitter.FitError, match=f"HiGHS {call} failed"):
            check_feasible(system, warm)

    def test_failed_tight_solve_reruns_at_default_tolerances(
            self, failing_runs):
        # an LP that does not end optimal at the tight tolerances runs
        # again from the same basis at HiGHS's defaults, not cold
        ladder = failing_runs
        fresh = fitter._Highs()
        assert fitter.DEFAULT_OPTIONS == {
            key: fresh.getOptionValue(key)[1] for key in fitter.DEFAULT_OPTIONS}
        basis = ladder.warm.basis
        ladder.fail[:] = [True]
        assert check_feasible(ladder.system, ladder.warm) is not None
        assert ladder.calls == ladder.warm_rungs(basis)
        assert ladder.warm.basis is not basis
        # the next LP starts at the tight tolerances again
        basis = ladder.warm.basis
        ladder.calls.clear()
        assert check_feasible(ladder.system, ladder.warm) is not None
        assert ladder.calls == ladder.warm_rungs(basis)[:2]

    def test_failed_warm_solve_falls_back(self, failing_runs):
        # if the default rung does not end the LP either, the fit fails.
        # A run that returns kError is a failed rung, not an error, and
        # its status goes into the FitError.
        ladder = failing_runs
        system, basis = ladder.system, ladder.warm.basis
        ladder.fail[:] = [True, True]
        with pytest.raises(fitter.FitError,
                           match=r"^LP solver failed: run status kError, "
                                 r"model status Not Set$"):
            check_feasible(system, ladder.warm)
        assert ladder.calls == ladder.warm_rungs(basis)
        assert ladder.warm.basis is basis
        # the next LP starts at the tight tolerances again
        ladder.calls.clear()
        assert check_feasible(system, ladder.warm) is not None
        assert ladder.calls == ladder.warm_rungs(basis)[:2]


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
