import math
import pathlib
from fractions import Fraction
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
from tempint.rational import denom_lower_bound, index_pairs, load_coeffs

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def coarse_fit_grid():
    return FitGrid.from_eval_grid(EvalGrid.from_spec("coarse"))


def bracket_closed(problem, result):
    """The fit's stopping rule holds for its bracket: the lower end is
    the level u_plus - max(BISECTION_TOL_ABS, tol_rel * u_plus)."""
    return result.u_minus >= result.u_plus - max(
        fitter.BISECTION_TOL_ABS, problem.bisection_tol_rel * result.u_plus)


def deviation(problem, vec):
    """A witness's max relative deviation over the whole grid, and its
    least Q there."""
    err, q = fitter._errors(problem, vec)
    return np.abs(err).max(), q.min()


class TestBuildFeasibility:
    def test_row_count(self, coarse_fit_grid):
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        system = build_feasibility(problem, 0.01)
        assert system.a_ub.shape == (2 * coarse_fit_grid.size, 12)
        assert system.a_eq.shape == (1, 12)

    @pytest.mark.parametrize("u", [0.0, 1e-4, 0.01])
    def test_rows_are_scaled_deviation_bounds(self, coarse_fit_grid, u):
        # at any increment d the rows are (+-(P - hQ) - u hQ) /
        # (delta h Q0), and the normalization row is
        # (sum Q / Q0 - |S|) / (delta |S|)
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        points = np.arange(0, coarse_fit_grid.size, 3)
        system = build_feasibility(problem, u, points)
        center = fitter._initial_witness(problem)
        np.testing.assert_array_equal(system.center, center)
        err0, q0 = (v[points] for v in fitter._errors(problem, center))
        assert system.delta == np.abs(err0).max()
        d = np.random.default_rng(1).normal(size=system.n_coeffs)
        vec = system.witness(d)
        err, q = (v[points] for v in fitter._errors(problem, vec))
        h = coarse_fit_grid.h[points]
        p = h * q * (1.0 + err)
        rows = system.a_ub @ d - system.b_ub
        scale = system.delta * h * q0
        n = len(points)
        np.testing.assert_allclose(rows[:n] * scale, p - h * q - u * h * q,
                                   rtol=1e-9, atol=1e-12 * scale.max())
        np.testing.assert_allclose(rows[n:2 * n] * scale,
                                   h * q - p - u * h * q,
                                   rtol=1e-9, atol=1e-12 * scale.max())
        assert len(rows) == 2 * n
        np.testing.assert_allclose(
            system.a_eq @ d * system.delta * n, [np.sum(q / q0) - n],
            rtol=1e-9)

    def test_single_point_rows(self):
        # one point, x = 10 on m = 0: the m and x columns are multiples of
        # the constant, so the LP moves a_00 and b_00; around P = 0,
        # Q = 1, whose error is -1 and deviation 1, the rows are
        # a / h - (1 + u) b <= 1 + u and -a / h + (1 - u) b <= u - 1,
        # and the normalization row is b = 0
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec("m=0:0:1,x=10:10:1"))
        problem = FitProblem(degree=1, grid=grid)
        np.testing.assert_array_equal(problem.columns, [0, 3])
        center = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        u, h = 0.25, grid.h[0]
        system = build_feasibility(problem, u, center=center)
        assert system.delta == 1.0
        np.testing.assert_allclose(
            system.a_ub, [[1 / h, -(1 + u)], [-1 / h, 1 - u]], rtol=1e-15)
        np.testing.assert_allclose(system.b_ub, [1 + u, u - 1], rtol=1e-15)
        np.testing.assert_array_equal(system.a_eq, [[0.0, 1.0]])
        np.testing.assert_array_equal(system.witness(np.array([2.0, 0.0])),
                                      [2.0, 0.0, 0.0, 1.0, 0.0, 0.0])

    def test_indistinct_columns_are_held_at_0(self):
        # on one m line m^j x^i is a multiple of x^i, and on m in {0, 1}
        # m^2 x^i equals m x^i: only the first of each stays a column,
        # the constant first of all, in P and in Q
        for spec, kept in (("m=1:1:1,x=4:100:1", [0, 1, 3, 6, 10]),
                           ("m=0:1:1,x=4:100:8", [0, 1, 2, 3, 4, 6, 7,
                                                  10, 11])):
            grid = FitGrid.from_eval_grid(EvalGrid.from_spec(spec))
            problem = FitProblem(degree=4, grid=grid)
            np.testing.assert_array_equal(problem.columns,
                                          kept + [15 + j for j in kept])
        problem = FitProblem(degree=4, grid=FitGrid.from_eval_grid(
            EvalGrid.from_spec("coarse")))
        np.testing.assert_array_equal(problem.columns, np.arange(30))

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("spec,m_lines", [
        ("m=1:1:1,x=4:100:1", 1), ("m=0:1:1,x=4:100:8", 2),
        ("m=-1:-0.999999999:0.000000001,x=4:100:2", 2)])
    def test_columns_follow_the_grid_shape(self, spec, m_lines, degree):
        # more x values than the degree: on L m lines the LPs move
        # exactly the x^i m^j with j < L, however close the lines are
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec(spec))
        problem = FitProblem(degree=degree, grid=grid)
        pairs = index_pairs(degree)
        kept = [k for k, (_, j) in enumerate(pairs) if j < m_lines]
        np.testing.assert_array_equal(
            problem.columns, kept + [len(pairs) + k for k in kept])

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
        u = 1e-4
        system = build_feasibility(problem, u)
        vec = check_feasible(system, fitter.WarmStart())
        dev, q_min = deviation(problem, vec)
        assert dev <= u * (1.0 + 1e-6)
        # Q > 0 at every point, scaled to sum Q / Q0 = |S|
        assert q_min > 0.0
        q0 = fitter._errors(problem, system.center)[1]
        q = fitter._errors(problem, vec)[1]
        assert np.sum(q / q0) == pytest.approx(len(q), rel=1e-9)

    def test_initial_witness_feasible(self, coarse_fit_grid, monkeypatch):
        # the least-squares witness needs no LP: its Q has min DENOM_FLOOR
        # on the grid, and its deviation is below 1
        monkeypatch.setattr(fitter, "DENOM_FLOOR", 0.5)
        for degree in (1, 2, 3, 4):
            problem = FitProblem(degree=degree, grid=coarse_fit_grid)
            witness = fitter._initial_witness(problem)
            dev, q_min = deviation(problem, witness)
            assert 0.0 < dev < 1e-1, degree
            assert q_min == pytest.approx(0.5, rel=1e-12), degree
            approx = fitter._coeffs_to_approximant(witness, degree)
            assert report(approx, coarse_fit_grid.grid).eps_max_abs == (
                pytest.approx(dev, rel=1e-9)), degree

    @pytest.mark.parametrize("b_10", [-2.0, 2.0])
    def test_initial_level_falls_back(self, coarse_fit_grid, monkeypatch,
                                      b_10):
        # a least-squares witness whose Q is not positive on the grid
        # (Q = 1 - 2 x / 100 at x = 100), or whose deviation is not below
        # 1 (P = 0), gives the start P = 0, Q = DENOM_FLOOR, of
        # deviation 1
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        n_coeffs = len(problem.columns)
        # the solution vector lacks b_00; its x column of Q follows P's
        fit = np.zeros(n_coeffs - 1)
        fit[n_coeffs // 2] = b_10
        monkeypatch.setattr(fitter.np.linalg, "lstsq",
                            lambda *args, **kwargs: (fit,))
        witness = fitter._initial_witness(problem)
        expected = np.zeros(n_coeffs)
        expected[n_coeffs // 2] = fitter.DENOM_FLOOR
        np.testing.assert_array_equal(witness, expected)
        assert deviation(problem, witness) == (1.0, fitter.DENOM_FLOOR)

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
        # the least-squares witness is exact: the fit ends with no LP
        assert result.lp_solves == 0 and result.u_minus == 0.0

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
def lp_calls(monkeypatch):
    """(u, delta, points, witness) of every ``check_feasible`` call."""
    real_check = fitter.check_feasible
    calls = []

    def recording_check(system, warm):
        vec = real_check(system, warm)
        calls.append((system.u, system.delta, system.points, vec))
        return vec

    monkeypatch.setattr(fitter, "check_feasible", recording_check)
    return calls


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

    def test_steps_then_one_infeasible_lp(self, coarse_fit_grid, lp_calls):
        # every step solves the LP at its center's deviation on S; the
        # last LP, at the lower end, is infeasible on the final S
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        steps = [c for c in lp_calls if c[0] == c[1]]
        assert all(vec is not None for _, _, _, vec in steps)
        assert len(steps) == result.iterations == 5
        u, delta, points, vec = lp_calls[-1]
        assert (u, vec) == (result.u_minus, None)
        assert u == delta - 1e-4 * delta == result.u_plus - 1e-4 * delta
        assert len(points) == result.active_points < coarse_fit_grid.size
        assert result.lp_solves == len(lp_calls) == result.iterations + 1
        # each step lowers the deviation the next is centered on
        deltas = [delta for _, delta, _, _ in steps]
        assert deltas == sorted(deltas, reverse=True)

    def test_subset_only_grows(self, coarse_fit_grid, lp_calls):
        # WarmStart keeps one basis because S only grows: the points of
        # every LP are sorted and hold those of the LP before
        bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        points = [c[2] for c in lp_calls]
        assert len({len(p) for p in points}) > 2
        for before, after in zip(points, points[1:]):
            assert np.all(np.diff(after) > 0)
            assert np.isin(before, after).all()

    def test_small_grid_solves_on_the_whole_grid(self, solve_rows):
        # 65 points are fewer than the 16 x 6 starting subset of degree 1,
        # so every LP has the rows of the whole grid
        grid = FitGrid.from_eval_grid(
            EvalGrid.from_spec("m=-1:1:0.5,x=4:100:8"))
        result = bisect_fit(FitProblem(degree=1, grid=grid))
        assert result.active_points == grid.size
        assert len(solve_rows) == result.lp_solves == result.iterations + 1
        assert set(solve_rows) == {2 * grid.size + 1}

    def test_exchanges_solve_no_full_grid_lp(self, paper_eval_grid,
                                             solve_rows):
        grid = FitGrid.from_eval_grid(paper_eval_grid)
        result = bisect_fit(FitProblem(degree=2, grid=grid))
        assert len(solve_rows) == result.lp_solves > result.iterations
        assert max(solve_rows) < 2 * grid.size + 1

    @pytest.mark.parametrize("spec,exact", [
        pytest.param(spec, exact, id=spec) for spec, exact in (
            ("m=1:1:1,x=4:100:1", False), ("m=0:1:1,x=4:100:8", True),
            ("m=0:0:1,x=4:100:0.25", False))])
    def test_indistinct_columns_fit(self, spec, exact):
        # grids that cannot tell monomials apart end in a few LPs with
        # a closed bracket, Q > 0 proven.  Degree 4 on 13 x values of two
        # m lines reaches 1.15e-13, within BISECTION_TOL_ABS: an exact
        # fit, whose lower end is 0
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec(spec))
        problem = FitProblem(degree=4, grid=grid)
        result = bisect_fit(problem)
        assert bracket_closed(problem, result)
        assert result.u_minus <= result.achieved_dev
        if exact:
            assert result.achieved_dev < 1e-12
        else:
            assert result.u_minus > 0.0
        assert result.lp_solves <= 10 and not result.pole_warning

    def test_near_duplicate_m_lines(self):
        # two m lines 1e-9 apart still tell x m from x: with it moved,
        # degree 2 reaches 5.022e-7 (2.240e-4 with x m held at 0)
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec(
            "m=-1:-0.999999999:0.000000001,x=4:100:2"))
        result = bisect_fit(FitProblem(degree=2, grid=grid))
        assert result.achieved_dev <= 6e-7 and not result.pole_warning

    def test_lower_end_on_the_m0_line(self):
        # a degree-4 witness with every m term 0, measured as `tempint
        # eval --coeffs` measures it, bounds u* on the 385-point m = 0
        # line from above; the fit's lower end stays below it
        grid = EvalGrid.from_spec("m=0:0:1,x=4:100:0.25")
        witness = load_coeffs(GOLDEN / "m0-line-n4.coeff")
        measured = report(witness, grid).eps_max_abs
        assert measured == pytest.approx(9.40e-11, rel=1e-3)
        result = bisect_fit(FitProblem(degree=4,
                                       grid=FitGrid.from_eval_grid(grid)))
        assert result.u_minus <= measured
        assert result.achieved_dev <= measured

    def test_lower_end_below_a_refuter(self):
        # refuter-n4.coeff is the witness of a cold linprog, at
        # TIGHT_OPTIONS, of the lower-end LP of a fit that held Q's
        # constant and kept Q >= 1 on S: measured as `tempint eval
        # --coeffs` measures it, with Q > 0 proven, it bounds u* on this
        # grid from above.  That fit printed u_minus 6.855e-11
        grid = EvalGrid.from_spec("m=-2:2:0.25,x=4:100:5")
        witness = load_coeffs(GOLDEN / "refuter-n4.coeff")
        measured = report(witness, grid).eps_max_abs
        assert measured == pytest.approx(1.248e-11, rel=1e-3)
        assert denom_lower_bound(witness.denom, grid)[1]
        result = bisect_fit(FitProblem(degree=4,
                                       grid=FitGrid.from_eval_grid(grid)))
        assert result.u_minus <= measured

    def test_lower_end_below_the_arrhenius_refuter(self, arrhenius_grid):
        # refuter-n4-arrhenius.coeff is the degree-4 fit on arrhenius of a
        # fitter that solved every LP as ``build_feasibility`` states it:
        # measured as `tempint eval --coeffs` measures it, with Q > 0
        # proven, it bounds u* on this grid from above.  A fitter that
        # solved the lower-end LP in dual form too printed u_minus 2.41e-10
        witness = load_coeffs(GOLDEN / "refuter-n4-arrhenius.coeff")
        measured = report(witness, arrhenius_grid).eps_max_abs
        assert measured == pytest.approx(4.2537e-11, rel=1e-4)
        assert denom_lower_bound(witness.denom, arrhenius_grid)[1]
        result = bisect_fit(FitProblem(
            degree=4, grid=FitGrid.from_eval_grid(arrhenius_grid)))
        assert result.u_minus <= measured

    def test_tol_zero_ends(self, coarse_fit_grid, lp_calls):
        # at tol_rel 0 the gap is BISECTION_TOL_ABS, below the LP's
        # resolution at 5.5e-3: a feasible verdict that gains less than
        # half the gap doubles it, and the fit ends on an infeasible one
        problem = FitProblem(degree=1, grid=coarse_fit_grid,
                             bisection_tol_rel=0.0)
        result = bisect_fit(problem)
        gaps = [delta - u for u, delta, _, _ in lp_calls if u < delta]
        assert gaps[0] == pytest.approx(fitter.BISECTION_TOL_ABS, rel=1e-3)
        assert result.u_plus - result.u_minus == pytest.approx(gaps[-1])
        assert gaps[-1] < 1e-10 and result.u_minus <= result.achieved_dev

    def test_failed_step_ends_the_steps(self, coarse_fit_grid, monkeypatch,
                                        lp_calls):
        # a step whose LP no rung ends optimal is a step without a
        # witness: the lower-end LP follows, on the same S
        real_solve = fitter.WarmStart.solve
        solves = []

        def failing_first(warm, system):
            solves.append(system.u)
            if len(solves) == 1:
                raise fitter.FitError("LP solver failed")
            return real_solve(warm, system)

        monkeypatch.setattr(fitter.WarmStart, "solve", failing_first)
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        result = bisect_fit(problem)
        assert solves[1] < solves[0]
        assert result.lp_solves == len(solves)
        assert bracket_closed(problem, result)
        assert result.achieved_dev <= 1.1 * 5.483e-3


    def test_failed_lower_end_is_solved_cold(self, coarse_fit_grid,
                                             monkeypatch):
        # a lower-end LP that no warm rung ends optimal is solved once
        # more from no stored basis, and counts as one more LP
        real_solve = fitter.WarmStart.solve
        solves, failed = [], []

        def failing_first_lower_end(warm, system):
            solves.append((system, warm.basic))
            if system.u < system.delta and not failed:
                failed.append(len(solves) - 1)
                raise fitter.FitError("LP solver failed")
            return real_solve(warm, system)

        monkeypatch.setattr(fitter.WarmStart, "solve",
                            failing_first_lower_end)
        problem = FitProblem(degree=1, grid=coarse_fit_grid)
        result = bisect_fit(problem)
        (system, basic), (retried, cold) = solves[failed[0]:failed[0] + 2]
        assert basic is not None and cold is None and retried is system
        assert result.lp_solves == len(solves)
        assert bracket_closed(problem, result)


@pytest.fixture
def verdicts(cold_feasible):
    """Feasible or not, by a warm solve and by the cold referee."""
    def both(system, warm):
        return check_feasible(system, warm) is not None, cold_feasible(system)
    return both


def statuses(basis):
    """A ``HighsBasis``'s column and row statuses."""
    return list(basis.col_status), list(basis.row_status)


def basic(status_lists):
    """Whether each status of (col_status, row_status) is basic."""
    return np.array([s == fitter.BASIC
                     for s in status_lists[0] + status_lists[1]])


def dual_start(mask, n_rows):
    """The statuses of a step's start from the stored ``mask``: each of
    y, w and s is basic iff its deviation row, the normalization row or
    t is not, at kLower, kZero and kLower if not; a dual row is basic iff
    its increment is not, and the last never is, at kLower if not."""
    def status(is_basic, nonbasic):
        return [fitter.BASIC if b else nonbasic for b in is_basic]
    dual = ~mask
    return (status(dual[:n_rows], fitter.LOWER)
            + status(dual[n_rows:n_rows + 1], fitter.ZERO)
            + status(dual[-1:], fitter.LOWER),
            status(dual[n_rows + 1:-1], fitter.LOWER) + [fitter.LOWER])


@pytest.fixture
def failing_runs(coarse_fit_grid):
    """A WarmStart that has solved one LP, a step (u = 0.01 is above its
    center's deviation), whose next HiGHS runs return kError while
    ``fail`` pops True; every setBasis (with its basis's statuses) and
    run (with its tolerance) goes into ``calls``."""
    system = build_feasibility(
        FitProblem(degree=2, grid=coarse_fit_grid), 0.01)
    assert system.u > system.delta
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
            calls.append(("setBasis", statuses(start)))
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

    def warm_rungs(stored):
        # both rungs of the step start from the complement of the mask
        start = dual_start(stored, len(system.b_ub))
        return [("setBasis", start), ("run", fitter.TIGHT_OPTIONS[key]),
                ("setBasis", start), ("run", fitter.DEFAULT_OPTIONS[key])]

    warm.highs = FailingRuns(warm.highs)
    return SimpleNamespace(system=system, warm=warm, calls=calls, fail=fail,
                           warm_rungs=warm_rungs)


@pytest.fixture
def step_bases(monkeypatch):
    """(system, stored mask, HiGHS's dual-form basis as statuses) after
    every step LP that ``WarmStart.solve`` ends optimal."""
    real_solve = fitter.WarmStart.solve
    steps = []

    def recording_solve(warm, system):
        out = real_solve(warm, system)
        if not system.u < system.delta:
            steps.append((system, warm.basic,
                          statuses(warm.highs.getBasis())))
        return out

    monkeypatch.setattr(fitter.WarmStart, "solve", recording_solve)
    return steps


class TestWarmStart:
    @pytest.mark.parametrize("degree", [2, 4])
    def test_step_bases_map_both_ways(self, coarse_fit_grid, step_bases,
                                      degree):
        # a step's basis is stored as the mask of basic rows and columns
        # of the LP as built; HiGHS's dual-form basic set is its
        # complement, and each form has as many basic entries as rows:
        # 2|S| + 1 as built, n_coeffs + 1 in dual form
        bisect_fit(FitProblem(degree=degree, grid=coarse_fit_grid))
        assert len(step_bases) >= 3
        for system, stored, dual in step_bases:
            n_rows = len(system.b_ub)
            assert len(stored) == n_rows + system.n_coeffs + 2
            assert np.array_equal(basic(dual), basic(dual_start(stored,
                                                                n_rows)))
            assert stored.sum() == n_rows + 1
            assert basic(dual).sum() == system.n_coeffs + 1

    @pytest.mark.parametrize("degree", [2, 4])
    def test_lower_end_from_a_step_basis(self, coarse_fit_grid, step_bases,
                                         verdicts, degree):
        # a lower-end LP on a step's points and center, started from the
        # step's stored basis, reaches the cold referee's verdict
        problem = FitProblem(degree=degree, grid=coarse_fit_grid)
        result = bisect_fit(problem)
        seen = set()
        for system, stored, _ in step_bases:
            for u in (result.u_minus, (1.0 - 1e-4) * system.delta):
                warm = fitter.WarmStart()
                warm.basic = stored
                warm.points = system.points
                warm_feasible, feasible = verdicts(
                    build_feasibility(problem, u, system.points,
                                      system.center), warm)
                assert warm_feasible == feasible, u
                seen.add(feasible)
        assert seen == {True, False}

    def test_infeasible_lower_end_rows_nonbasic_are_tight(
            self, coarse_fit_grid, monkeypatch):
        # after the lower-end LP that sets u_minus, every deviation row
        # the mask marks nonbasic is tight at HiGHS's solution: the
        # active set is the nonbasic rows
        real_solve = fitter.WarmStart.solve
        lower_ends = []

        def recording_solve(warm, system):
            slack, x = real_solve(warm, system)
            if system.u < system.delta:
                lower_ends.append((system, warm.basic, slack, x))
            return slack, x

        monkeypatch.setattr(fitter.WarmStart, "solve", recording_solve)
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        system, mask, slack, x = lower_ends[-1]
        assert system.u == result.u_minus
        assert slack > fitter.FEASIBILITY_TOL
        n_rows = len(system.b_ub)
        active = ~mask[:n_rows]
        assert active.sum() >= 1
        rows = system.a_ub @ x[:-1] - x[-1]
        np.testing.assert_allclose(rows[active], system.b_ub[active],
                                   rtol=0.0, atol=1e-9)

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
        # LPs on S plus new points start from the mask on S, with the
        # rows of the new points basic: an exchange, then the whole grid
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        size = coarse_fit_grid.size
        subset = np.arange(0, size, 4)
        grown = np.union1d(subset, np.arange(1, size, 8))
        u_star = bisect_fit(problem).u_plus
        starts = []   # the basic rows of every basis handed to setBasis

        class RecordingBases:
            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def setBasis(self, start):
                starts.append(basic(([], start.row_status)))
                return self.highs.setBasis(start)

        for u in (0.9 * u_star, 1.1 * u_star):
            warm = fitter.WarmStart()
            warm.highs = RecordingBases(warm.highs)
            check_feasible(build_feasibility(problem, u, subset), warm)
            assert np.array_equal(warm.points, subset)
            for points in (grown, np.arange(size)):
                n_old = len(warm.points)
                stored = warm.basic[:2 * n_old + 1]   # its rows' flags
                at = np.searchsorted(points, warm.points)
                starts.clear()
                warm_feasible, feasible = verdicts(
                    build_feasibility(problem, u, points), warm)
                assert warm_feasible == feasible, u
                # the rows of the points solved before, and the
                # normalization row, keep their flags from that LP's
                # optimal basis; the rows of new points are basic
                start = starts[0]
                assert start[-1] == stored[-1]
                start = start[:-1].reshape(2, -1)
                assert start.shape == (2, len(points))
                assert np.array_equal(start[:, at],
                                      stored[:-1].reshape(2, -1))
                assert np.all(np.delete(start, at, axis=1))
                assert np.array_equal(warm.points, points)
            assert feasible == (u > u_star)

    @pytest.mark.parametrize("u", [1e-6, 1e-4])
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

    def test_step_lowers_the_deviation(self, coarse_fit_grid):
        # the LP at its center's deviation is feasible at t = 0, d = 0;
        # its optimum t is in [-1, 0], its witness meets sum Q / Q0 = |S|
        # on the LP's points and does better there by that share of
        # delta, through Q0 / Q
        problem = FitProblem(degree=2, grid=coarse_fit_grid)
        center = fitter._initial_witness(problem)
        delta = deviation(problem, center)[0]
        system = build_feasibility(problem, delta, center=center)
        assert system.delta == delta
        warm = fitter.WarmStart()
        slack, x = warm.solve(system)
        assert -1.0 <= slack < 0.0
        err0, q0 = fitter._errors(problem, center)
        err, q = fitter._errors(problem, system.witness(x[:-1]))
        assert np.sum(q / q0) == pytest.approx(len(q), rel=1e-9)
        bound = delta * (1.0 + slack * q0 / q)
        assert np.all(np.abs(err) <= bound * (1.0 + 1e-6))
        assert np.abs(err).max() < delta

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
        mask = ladder.warm.basic
        ladder.fail[:] = [True]
        assert check_feasible(ladder.system, ladder.warm) is not None
        assert ladder.calls == ladder.warm_rungs(mask)
        assert ladder.warm.basic is not mask
        # the next LP starts at the tight tolerances again
        mask = ladder.warm.basic
        ladder.calls.clear()
        assert check_feasible(ladder.system, ladder.warm) is not None
        assert ladder.calls == ladder.warm_rungs(mask)[:2]

    def test_failed_warm_solve_falls_back(self, failing_runs):
        # if the default rung does not end the LP either, the fit fails.
        # A run that returns kError is a failed rung, not an error, and
        # its status goes into the FitError.
        ladder = failing_runs
        system, mask = ladder.system, ladder.warm.basic
        saved = mask.copy()
        ladder.fail[:] = [True, True]
        with pytest.raises(fitter.FitError,
                           match=r"^LP solver failed: run status kError, "
                                 r"model status Not Set$"):
            check_feasible(system, ladder.warm)
        assert ladder.calls == ladder.warm_rungs(mask)
        # a failed LP leaves the mask as it was
        assert ladder.warm.basic is mask
        assert np.array_equal(mask, saved)
        # the next LP starts at the tight tolerances again
        ladder.calls.clear()
        assert check_feasible(system, ladder.warm) is not None
        assert ladder.calls == ladder.warm_rungs(mask)[:2]


class TestVerifyFit:
    def test_fine_factor_1_reproduces(self, coarse_fit_grid):
        # the deviation report of the fitted approximant on the fit grid
        # is achieved_dev exactly, also for another grid and for one
        # built without a spec
        other = EvalGrid.from_spec("m=-1:1:1,x=4:100:12")
        specless = EvalGrid((0.0, 1.0), (4.0, 50.0, 100.0))
        for grid in (coarse_fit_grid, FitGrid.from_eval_grid(other),
                     FitGrid.from_eval_grid(specless)):
            for degree in (1, 2):
                result = bisect_fit(FitProblem(degree=degree, grid=grid))
                rep = report(result.approximant, grid.grid)
                assert rep.eps_max_abs == result.achieved_dev, (grid, degree)

    def test_denom_min_is_q_at_first_vertex(self, coarse_fit_grid):
        # Q's least Bernstein coefficient on the rectangle is the one at
        # (m0, x0) = (-4, 4), so denom_min is Q's exact value there,
        # rounded down: proven least
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert result.denom_min > 0.0 and not result.pole_warning
        q = result.approximant.denom
        exact = sum(Fraction(c) * 4 ** i * (-4) ** j
                    for (i, j), c in zip(index_pairs(2), q.coeffs))
        assert Fraction(result.denom_min) <= exact
        assert Fraction(math.nextafter(result.denom_min, math.inf)) > exact

    def test_denominator_zero_between_grid_points(self, coarse_fit_grid,
                                                  pole_between_points):
        # the least Bernstein coefficient of Q = (x - 6)**2 on coarse's
        # rectangle is -188, so Q > 0 is not proven
        result = bisect_fit(FitProblem(degree=2, grid=coarse_fit_grid))
        assert result.approximant is pole_between_points
        assert result.denom_min == -188.0 and result.pole_warning

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
