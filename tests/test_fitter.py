import dataclasses
import tracemalloc
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
from tempint.rational import (BivariatePoly, RationalApproximant,
                              paper_approximant)


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
                             fitter.WarmStart())
        assert vec is not None and len(vec) == 6

    def test_u_0_two_targets_infeasible(self):
        # a degree-1 ratio cannot interpolate 97 distinct targets exactly
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("arrhenius"))
        problem = FitProblem(degree=1, grid=grid)
        assert check_feasible(build_feasibility(problem, 0.0),
                              fitter.WarmStart()) is None

    def test_witness_satisfies_rows(self, coarse_fit_grid):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        system = build_feasibility(problem, 0.01)
        vec = check_feasible(system, fitter.WarmStart())
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
            assert report(approx, coarse_fit_grid.grid).eps_max_abs == (
                pytest.approx(u_start, rel=1e-9)), degree

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
                fitter.WarmStart()) is not None
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


@pytest.fixture
def lying_subset_fit(coarse_fit_grid, monkeypatch):
    """Degree 1 on ``coarse`` with a check whose first LP on a subset at
    each level below 1.25 u* says infeasible, though the full grid is
    feasible down to u*; a repeat of the level, the confirmation, tells
    the truth.  ``levels`` and ``points`` are the level and the points
    of every LP, in call order."""
    problem = FitProblem(degree=1, grid=coarse_fit_grid)
    with monkeypatch.context() as patch:
        # a starting subset larger than the grid: plain bisection
        patch.setattr(fitter, "SUBSET_PER_COEFF", coarse_fit_grid.size)
        plain = bisect_fit(problem)
    false_below = 1.25 * plain.u_plus
    real_check = fitter.check_feasible
    levels, points = [], []

    def lying_check(system, warm):
        subset = len(system.points) < coarse_fit_grid.size
        first = system.u not in levels
        levels.append(system.u)
        points.append(system.points)
        if subset and first and system.u < false_below:
            return None
        return real_check(system, warm)

    monkeypatch.setattr(fitter, "check_feasible", lying_check)
    return SimpleNamespace(problem=problem, result=bisect_fit(problem),
                           false_below=false_below, levels=levels,
                           points=points)


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
                                             lying_subset_fit, cold_feasible):
        fit = lying_subset_fit
        problem, result, levels = fit.problem, fit.result, fit.levels
        full_grid_levels = [u for u, points in zip(levels, fit.points)
                            if len(points) == coarse_fit_grid.size]
        # the confirmation finds a witness at the false u_minus, just
        # below 1.25 u*, once
        [confirmed] = {u for u in levels if levels.count(u) > 1}
        assert levels.count(confirmed) == 2
        assert confirmed == pytest.approx(0.0068542, rel=1e-5)
        assert confirmed < fit.false_below
        # the contradiction restarts plain bisection on the whole grid,
        # on [0, confirmed]: every whole-grid LP comes after the restart,
        # the first at half the confirmed level
        assert result.active_points == coarse_fit_grid.size
        assert full_grid_levels[0] == confirmed / 2.0
        assert max(full_grid_levels[1:]) < confirmed
        assert min(full_grid_levels) < fit.false_below
        # one LP per level, and the confirmation's one
        assert result.lp_solves == result.iterations + 1 == 47
        # both ends hold on the whole grid
        assert not cold_feasible(build_feasibility(problem, result.u_minus))
        assert cold_feasible(build_feasibility(problem, result.u_plus))

    def test_subset_only_grows(self, lying_subset_fit):
        # WarmStart keeps one basis because S only grows: the points of
        # every LP are sorted and hold those of the LP before, through
        # exchanges and the restart on the whole grid
        points = lying_subset_fit.points
        assert len({len(p) for p in points}) > 2
        assert np.all(np.diff(points[0]) > 0)
        for before, after in zip(points, points[1:]):
            assert np.all(np.diff(after) > 0)
            assert np.isin(before, after).all()

    def test_confirmation_witness_failing_outside_s_exchanges(
            self, coarse_fit_grid, monkeypatch, cold_feasible):
        # a confirmation whose witness fails outside S grows S like any
        # pass witness, and the next confirmation runs on the larger S
        problem = FitProblem(degree=2, grid=coarse_fit_grid,
                             bisection_tol_rel=0.3)
        u_star = bisect_fit(problem).u_plus
        real_check, real_check_on_grid = (fitter.check_feasible,
                                          fitter._check_on_grid)
        solves, checks = [], []

        def lying_check(system, warm):
            # the first subset LP at each level in (u*, 1.5 u*) says
            # infeasible; a repeat of the level tells the truth
            subset = len(system.points) < coarse_fit_grid.size
            first = system.u not in [u for u, _ in solves]
            solves.append((system.u, len(system.points)))
            if subset and first and u_star < system.u < 1.5 * u_star:
                return None
            return real_check(system, warm)

        def recording_check_on_grid(problem, vec, u, s):
            worst, level = real_check_on_grid(problem, vec, u, s)
            checks.append((u, worst.size))
            return worst, level

        monkeypatch.setattr(fitter, "check_feasible", lying_check)
        monkeypatch.setattr(fitter, "_check_on_grid", recording_check_on_grid)
        result = bisect_fit(problem)
        levels = [u for u, _ in solves]
        [confirmed] = {u for u in levels if levels.count(u) > 1}
        assert confirmed == pytest.approx(5.1678e-5, rel=1e-4)
        # the lie, then two confirmations: on 206 points, whose witness
        # fails outside S, and on 207
        assert [n for u, n in solves if u == confirmed] == [203, 206, 207]
        confirm_checks = [bad for u, bad in checks if u == confirmed]
        assert len(confirm_checks) == 2 and confirm_checks[0] > 0
        assert confirm_checks[1] == 0
        # the second witness holds on the whole grid: the restart
        assert result.active_points == coarse_fit_grid.size
        assert result.lp_solves == result.iterations + 2 == 15
        assert not cold_feasible(build_feasibility(problem, result.u_minus))
        assert cold_feasible(build_feasibility(problem, result.u_plus))

    def test_one_confirmation_per_fit(self, coarse_fit_grid, monkeypatch):
        # S (204 of 425 points at the end) is not the whole grid, so the
        # fit confirms its lower end once, after the last pass on S, with
        # one more LP on S
        real_check = fitter.check_feasible
        calls = []

        def recording_check(system, warm):
            vec = real_check(system, warm)
            calls.append((system.u, len(system.points), vec))
            return vec

        monkeypatch.setattr(fitter, "check_feasible", recording_check)
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert result.active_points < coarse_fit_grid.size
        u, n_points, vec = calls[-1]
        assert u == result.u_minus and vec is None
        assert n_points == result.active_points
        assert [c[0] for c in calls].count(u) == 2
        assert result.lp_solves == len(calls) == result.iterations + 1 == 51

    def test_whole_grid_subset_needs_no_confirmation(self, coarse_fit_grid,
                                                     monkeypatch):
        # degree 4 has 30 coefficients: the starting S of 480 points is
        # the whole coarse grid, whose LPs need no confirmation
        real_check = fitter.check_feasible
        levels = []

        def recording_check(system, warm):
            levels.append(system.u)
            return real_check(system, warm)

        monkeypatch.setattr(fitter, "check_feasible", recording_check)
        result = bisect_fit(FitProblem(degree=4, grid=coarse_fit_grid))
        assert result.active_points == coarse_fit_grid.size
        assert len(set(levels)) == len(levels)
        assert result.lp_solves == len(levels) == result.iterations

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
    warm = fitter.WarmStart()
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
        warm = fitter.WarmStart()
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
        # as in a restart
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        size = coarse_fit_grid.size
        subset = np.arange(0, size, 4)
        grown = np.union1d(subset, np.arange(1, size, 8))
        u_star = bisect_fit(problem).u_plus
        starts = []   # the row statuses of every basis handed to setBasis

        class RecordingBases:
            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def setBasis(self, start):
                starts.append(list(start.row_status))
                return self.highs.setBasis(start)

        for u in (0.9 * u_star, 1.1 * u_star):
            warm = fitter.WarmStart()
            warm.highs = RecordingBases(warm.highs)
            check_feasible(build_feasibility(problem, u, subset), warm)
            assert np.array_equal(warm.points, subset)
            for points in (grown, np.arange(size)):
                stored = np.array(warm.basis.row_status, dtype=object)
                assert len(stored) == 3 * len(warm.points)
                at = np.searchsorted(points, warm.points)
                starts.clear()
                warm_feasible, feasible = verdicts(
                    build_feasibility(problem, u, points), warm)
                assert warm_feasible == feasible, u
                # the rows of the points solved before keep the statuses
                # of that LP's optimal basis; the rows of new points are
                # basic
                start = np.array(starts[0], dtype=object).reshape(3, -1)
                assert start.shape == (3, len(points))
                assert np.array_equal(start[:, at], stored.reshape(3, -1))
                assert np.all(np.delete(start, at, axis=1)
                              == fitter.HighsBasisStatus.kBasic)
                assert np.array_equal(warm.points, points)
            assert feasible == (u > u_star)

    @pytest.mark.parametrize("u", [1e-6, 0.01])
    def test_resolve_starts_optimal(self, coarse_fit_grid, verdicts, u):
        # the LP just solved, solved again, starts from its optimal basis:
        # no simplex iteration and no cold solve
        system = build_feasibility(
            FitProblem(degree=2, grid=coarse_fit_grid), u)
        warm = fitter.WarmStart()
        feasible = check_feasible(system, warm) is not None
        assert warm.highs.getInfo().simplex_iteration_count > 0
        assert verdicts(system, warm) == (feasible, feasible)
        assert warm.highs.getInfo().simplex_iteration_count == 0

    def test_slack_is_never_negative(self, coarse_fit_grid):
        # t >= 0 is a bound of the LP, which HiGHS meets only within its
        # primal tolerance: a default-tolerance rung returned -6.8e-10
        system = build_feasibility(
            FitProblem(degree=2, grid=coarse_fit_grid), 0.01)
        warm = fitter.WarmStart()

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
        warm = fitter.WarmStart()
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
        # denom_min is the least Q over the flattened 4x-refined grid
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert result.denom_min > 0.0 and not result.pole_warning
        fine = coarse_fit_grid.grid.refined(4)
        m = np.repeat(fine.m_values, len(fine.x_values))
        x = np.tile(fine.x_values, len(fine.m_values))
        assert result.denom_min == result.approximant.denom.eval(m, x).min()

    def test_verification_grid_in_bounded_memory(self, coarse_fit_grid,
                                                 monkeypatch):
        # each axis of this grid is within the limit, but its 961,961
        # points refine to 15,367,841: Q is evaluated on them in blocks
        # of at most MAX_GRID_POINTS points (369 MB in one broadcast)
        fine = fitter.verification_grid(
            EvalGrid.from_spec("m=-4:4:0.008,x=4:100:0.1"))
        assert fine.size == 15_367_841
        problem = FitProblem(
            degree=1, grid=dataclasses.replace(coarse_fit_grid, fine=fine))
        # Q = 10 - m, least on the last m row, which is in the last block
        approx = RationalApproximant(BivariatePoly(1, [1, 0, 0]),
                                     BivariatePoly(1, [10, 0, -1]))
        monkeypatch.setattr(fitter, "_coeffs_to_approximant",
                            lambda vec, degree: approx)
        tracemalloc.start()
        try:
            result = bisect_fit(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert fine.m_values[-1] == 4.0 and result.denom_min == 6.0

    def test_denominator_zero_between_grid_points(self, coarse_fit_grid,
                                                  pole_between_points):
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert result.approximant is pole_between_points
        assert result.denom_min == 0.0 and result.pole_warning

    def test_no_oracle_call(self, coarse_fit_grid, monkeypatch):
        # the targets of the fit grid are all the oracle values a fit needs
        def no_oracle(*args):
            raise AssertionError("oracle called")

        monkeypatch.setattr(fitter, "oracle_h_row", no_oracle)
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert not result.pole_warning

    def test_bundled_g3_verification(self):
        # published degree-3 approximant on the evaluation grid
        rep = report("G3", EvalGrid.from_spec("paper-eval"))
        assert rep.eps_max_abs == pytest.approx(1.72e-6, rel=0.05)
