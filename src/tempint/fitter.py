"""Minimax rational fitting by bisection with LP feasibility subproblems.

The objective is the paper's accuracy metric: the maximal relative
deviation u = max |eps|, eps = (P/Q) / h - 1, of P/Q from the target h
over a finite grid.  Minimizing it is quasiconvex: for fixed u the
sublevel set of coefficient vectors is a polyhedron, so bisection on u
needs only a linear feasibility test per level.  Each test is posed as
a phase-1 LP (minimize the common slack t subject to all rows relaxed
by t; the system is feasible iff the optimum slack is below
``FEASIBILITY_TOL``), which is numerically robust and yields a witness
vector.

Per grid point k with target h_k > 0 the rows are |P_k/Q_k - h_k| <=
u*h_k multiplied through by Q_k > 0, and the denominator floor:

    P_k - (h_k + u*h_k) * Q_k <= 0
   -P_k + (h_k - u*h_k) * Q_k <= 0
    Q_k >= DENOM_FLOOR

all linear in the stacked coefficient vector (a_ij, b_ij).  Monomial
columns are rescaled to unit max absolute value over the whole grid
before solving and the witness is unscaled afterwards, which keeps the
LP well conditioned up to degree 4 on the default domain.

The LP cost grows with the row count, not with the difficulty, and a
minimax fit has only about n_coeffs + 1 extremal points.  So the
bisection runs on a subset S of the grid and exchanges points into it
(a cutting-plane method, as in the Remez exchange): S starts as
``SUBSET_PER_COEFF * n_coeffs`` evenly strided points, and each exchange
adds at most ``EXCHANGE_PER_COEFF * n_coeffs`` of the worst violators
outside S.  Every witness is checked on the whole grid with numpy, so
``u_plus`` always rests on the whole grid.  ``u_minus`` rests on the
whole grid too: adding rows never lowers an LP's optimum slack, so an
infeasible S is an infeasible grid.  One more LP at ``u_minus`` on S
confirms it against HiGHS's wrong verdicts (see ``bisect_fit``).  The
fit's deviation is ``harness.report``'s, as ``tempint eval`` prints it.

Consecutive LPs differ only in the (1 +- u) * h coefficients and in the
points of S, so every LP of a fit goes through one HiGHS instance with
presolve off, started from the optimal basis of the last LP solved
(``WarmStart``), the fitter's only LP solver.  A solve that does not end
optimal runs again from the same basis at HiGHS's default tolerances;
if that does not end optimal either, the fit fails with ``FitError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# bound for perfbench/layers.py, which wraps fitter.linprog
from scipy.optimize import linprog
# the HiGHS binding that scipy's linprog loads for method="highs"
from scipy.optimize._highspy._core import (HighsBasisStatus, HighsModelStatus,
                                           HighsStatus, MatrixFormat, ObjSense,
                                           _Highs)
from scipy.sparse import csc_array

from tempint.harness import EvalGrid, oracle_h_row, report
from tempint.rational import (MAX_DEGREE, BivariatePoly, RationalApproximant,
                              denom_lower_bound, index_pairs)


# Exchange sizing, in multiples of the coefficient count n_coeffs
SUBSET_PER_COEFF = 16     # starting size of S
EXCHANGE_PER_COEFF = 4    # most violators added to S per exchange

DENOM_FLOOR = 1.0          # Q >= DENOM_FLOOR at every grid point
BISECTION_TOL_ABS = 1e-12  # the bracket closes within this, or tol_rel * u
FEASIBILITY_TOL = 1e-9     # phase-1 slack, and row excess, of a feasible u
# HiGHS primal and dual feasibility tolerances of the first solve of an
# LP, and HiGHS's defaults, those of the second
TIGHT_OPTIONS = {"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9}
DEFAULT_OPTIONS = {"primal_feasibility_tolerance": 1e-7,
                   "dual_feasibility_tolerance": 1e-7}


class FitError(Exception):
    """LP solver failure distinct from a clean infeasibility verdict."""


@dataclass
class FitGrid:
    """Evaluation grid plus precomputed oracle targets, flattened m-major."""

    grid: EvalGrid
    m: np.ndarray
    x: np.ndarray
    h: np.ndarray

    @classmethod
    def from_eval_grid(cls, grid: EvalGrid) -> "FitGrid":
        mv = np.repeat(np.array(grid.m_values), len(grid.x_values))
        xv = np.tile(np.array(grid.x_values), len(grid.m_values))
        hv = oracle_h_row(grid.m_values, grid.x_values).ravel()
        if not np.all(np.isfinite(hv)) or np.any(hv <= 0.0):
            raise FitError("non-finite or non-positive oracle target")
        return cls(grid=grid, m=mv, x=xv, h=hv)

    @property
    def size(self) -> int:
        return len(self.h)


@dataclass
class FitProblem:
    degree: int
    grid: FitGrid
    bisection_tol_rel: float = 1e-4

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(
                f"degree must be in 1..{MAX_DEGREE}, got {self.degree}: above "
                f"{MAX_DEGREE} the bisection bracket is not sound")
        if not 0.0 <= self.bisection_tol_rel < 1.0:
            raise ValueError("bisection_tol_rel must be finite and in [0, 1), "
                             f"got {self.bisection_tol_rel}")

    @cached_property
    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Monomials at every grid point, columns scaled to unit max |value|."""
        g = self.grid
        phi = _monomial_matrix(self.degree, g.m, g.x)
        scale = np.abs(phi).max(axis=0)
        scale[scale == 0.0] = 1.0   # degenerate grids can zero whole columns
        return phi / scale, scale


@dataclass
class FeasibilitySystem:
    """Dense rows A @ c <= b over the stacked (a_ij, b_ij) coefficients."""

    u: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    col_scale: np.ndarray   # per-coefficient rescale applied to the columns
    points: np.ndarray      # flat grid indices of the rows

    @property
    def n_coeffs(self) -> int:
        return self.a_ub.shape[1]


def _monomial_matrix(degree: int, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    pairs = index_pairs(degree)
    return np.column_stack([x ** i * m ** j for i, j in pairs])


def build_feasibility(problem: FitProblem, u: float,
                      points: np.ndarray | None = None) -> FeasibilitySystem:
    """Three rows per grid point: two deviation bounds and the Q floor.

    ``points`` (flat grid indices) restricts the rows to those points;
    by default they are the whole grid.  The column scale always comes
    from the whole grid, so each subset row is bit-identical to its row
    in the full system.
    """
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u}")
    if points is None:
        points = np.arange(problem.grid.size)
    phi_s, scale = problem.basis
    phi_s, h = phi_s[points], problem.grid.h[points]
    zeros = np.zeros_like(phi_s)
    upper = (h + u * h)[:, None] * phi_s
    lower = (h - u * h)[:, None] * phi_s
    a_ub = np.vstack([
        np.hstack([phi_s, -upper]),
        np.hstack([-phi_s, lower]),
        np.hstack([zeros, -phi_s]),
    ])
    b_ub = np.concatenate([
        np.zeros(2 * len(h)),
        -DENOM_FLOOR * np.ones(len(h)),
    ])
    return FeasibilitySystem(u=u, a_ub=a_ub, b_ub=b_ub,
                             col_scale=np.concatenate([scale, scale]),
                             points=points)


class WarmStart:
    """The fitter's LP solver: one HiGHS instance for the LPs of a fit,
    and the optimal basis of its last warm solve (see ``solve``).

    ``basis`` is the ``HighsBasis`` that HiGHS returned for the last LP,
    whose rows belong to the sorted grid points ``points``.  The next LP
    on the same points starts from it as it is.  S only grows, so an LP
    on other points (an exchange, or a restart on the whole grid) has a
    superset of them.  Its basis is the stored one with rows for the new
    points, written into ``basis.row_status`` in place: the stored
    points keep their statuses, three rows each in ``build_feasibility``
    order, and the rows of the new points are basic (their slacks enter
    the basis), so it stays valid.  An LP that no solve ends optimal
    leaves that basis stored.
    """

    def __init__(self):
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "off")
        self.basis, self.points = None, None

    def solve(self, system: FeasibilitySystem) -> tuple[float, np.ndarray]:
        """The optimum slack t >= 0 and solution (c, t) of the phase-1 LP
        min t subject to A @ c - t <= b, t >= 0, on the rows of ``system``.

        A ladder of at most two solves: HiGHS at ``TIGHT_OPTIONS`` from
        the stored basis, if there is one; if that does not end optimal,
        HiGHS again from the same basis at its default tolerances.  Raises
        ``FitError``, with the last run status and model status, if that
        does not either.
        """
        a = np.hstack([system.a_ub, -np.ones((system.a_ub.shape[0], 1))])
        n_rows, n_cols = a.shape
        cost = np.eye(n_cols)[-1]
        sparse = csc_array(a)
        highs = self.highs
        _check_status(highs.passModel(
            n_cols, n_rows, sparse.nnz, MatrixFormat.kColwise,
            ObjSense.kMinimize, 0.0, cost,
            np.r_[np.full(n_cols - 1, -np.inf), 0.0], np.full(n_cols, np.inf),
            np.full(n_rows, -np.inf), system.b_ub,
            sparse.indptr, sparse.indices, sparse.data,
            np.zeros(n_cols, dtype=np.int32)), "passModel")
        if self.basis is not None and not np.array_equal(system.points,
                                                         self.points):
            kept = np.isin(system.points, self.points)
            status = np.full((3, len(kept)), HighsBasisStatus.kBasic,
                             dtype=object)
            status[:, kept] = np.array(self.basis.row_status,
                                       dtype=object).reshape(3, -1)
            self.basis.row_status = status.ravel().tolist()
            self.points = system.points
        for options in (TIGHT_OPTIONS, DEFAULT_OPTIONS):
            # tight tolerances can break down near degeneracy (degree 4 at
            # u ~ 1e-9); the same start at the defaults mends those LPs
            for key, value in options.items():
                highs.setOptionValue(key, value)
            if self.basis is not None:
                _check_status(highs.setBasis(self.basis), "setBasis")
            # a run that returns kError is a failed rung, not an error
            run_status = highs.run()
            model_status = highs.getModelStatus()
            if model_status == HighsModelStatus.kOptimal:
                self.basis, self.points = highs.getBasis(), system.points
                # t >= 0 is the LP's own bound, which HiGHS meets only
                # within its primal tolerance (-6.8e-10 at the default one)
                slack = highs.getInfo().objective_function_value
                return max(slack, 0.0), np.array(highs.getSolution().col_value)
        raise FitError(
            f"LP solver failed: run status {run_status.name}, model status "
            f"{highs.modelStatusToString(model_status)}")


def _check_status(status: HighsStatus, call: str) -> None:
    """A HiGHS call that fails is an error, not a silent cold solve."""
    if status == HighsStatus.kError:
        raise FitError(f"HiGHS {call} failed")


def check_feasible(system: FeasibilitySystem, warm: WarmStart):
    """Witness coefficient vector if the system is feasible, else None.

    The phase-1 LP (``WarmStart.solve``) is always solvable; the system
    is feasible iff its optimum slack t is within ``FEASIBILITY_TOL``.
    """
    slack, x = warm.solve(system)
    if slack > FEASIBILITY_TOL:
        return None
    return x[:system.n_coeffs] / system.col_scale


@dataclass
class FitResult:
    """A fitted P/Q, its bracket on the fit grid, and its verification."""

    approximant: RationalApproximant
    u_minus: float
    u_plus: float
    iterations: int            # bisection levels of all passes, one LP each
    lp_solves: int             # LPs of the levels and of the confirmations
    active_points: int         # final size of the subset S
    achieved_dev: float        # harness.report's max |eps| on the fit grid
    denom_min: float           # denom_lower_bound on the fit grid's rectangle
    pole_warning: bool         # Q > 0 not proven there
    grid: EvalGrid             # the fit grid

    def report_text(self) -> str:
        lines = [
            f"u_minus {self.u_minus!r}",
            f"u_plus {self.u_plus!r}",
            f"iterations {self.iterations}",
            f"achieved_dev {self.achieved_dev!r}",
            f"denom_min {self.denom_min!r}",
            "mode relative",
            f"grid-spec {self.grid.spec}",
        ]
        return "\n".join(lines) + "\n"


def _coeffs_to_approximant(vec: np.ndarray, degree: int) -> RationalApproximant:
    """P and Q from the stacked witness (a_ij, b_ij), both in
    ``index_pairs`` order, the layout ``BivariatePoly`` stores."""
    coeffs = [float(v) for v in vec]
    a, b = coeffs[:len(coeffs) // 2], coeffs[len(coeffs) // 2:]
    # Presentation normalization: unit |b_00| unless it is near zero.
    # The witness has Q >= DENOM_FLOOR > 0 on the grid; dividing by the
    # pivot's magnitude keeps it positive.
    pivot = abs(b[0]) if abs(b[0]) >= 1e-3 else max(map(abs, b))
    return RationalApproximant(
        BivariatePoly(degree, [v / pivot for v in a]),
        BivariatePoly(degree, [v / pivot for v in b]))


def _check_on_grid(problem: FitProblem, vec: np.ndarray, u: float,
                   s: np.ndarray) -> tuple[np.ndarray, float]:
    """Violators of a witness outside S, worst first, and its verified level.

    A violator is a grid point outside S where one of the witness's rows
    at level u exceeds ``FEASIBILITY_TOL``.  With none, the witness holds
    at u.  Otherwise it holds at its deviation over the whole grid, if
    its denominator keeps the floor there, and at no level if not.
    """
    phi_s, scale = problem.basis
    h = problem.grid.h
    coeffs = vec * np.tile(scale, 2)
    p, q = phi_s @ coeffs[:len(scale)], phi_s @ coeffs[len(scale):]
    # the largest row excess A @ c - b at level u, per grid point
    excess = np.maximum.reduce([p - (h + u * h) * q, (h - u * h) * q - p,
                                DENOM_FLOOR - q])
    excess[s] = -np.inf
    bad = np.flatnonzero(excess > FEASIBILITY_TOL)
    if not bad.size:
        return bad, u
    level = math.inf
    if np.all(q > 0.0) and DENOM_FLOOR - q.min() <= FEASIBILITY_TOL:
        level = float(np.max(np.abs(p - h * q) / (h * q)))
    return bad[np.argsort(-excess[bad], kind="stable")], level


def _initial_level(problem: FitProblem) -> tuple[float, np.ndarray]:
    """The upper end u_start of the first bracket and a witness there.

    The witness is the least-squares fit, min sum (P_k/h_k - Q_k)^2 with
    b_00 = 1, scaled so that min Q = DENOM_FLOOR on the grid; u_start is
    its deviation there, so its rows hold at u_start with no LP.  If its
    Q is not positive at every grid point, or its deviation is not below
    1, the start is u = 1 with P = 0, Q = DENOM_FLOOR, which holds there
    because h > 0: -(h + u*h) * Q <= 0 always, (h - u*h) * Q = 0 at
    u = 1, and Q meets the floor.
    """
    phi_s, scale = problem.basis
    h = problem.grid.h
    half = len(scale)
    # b_00 = 1 moves the constant column of Q to the right-hand side
    fit = np.linalg.lstsq(np.hstack([phi_s / h[:, None], -phi_s[:, 1:]]),
                          phi_s[:, 0], rcond=None)[0]
    coeffs = np.concatenate([fit[:half], [1.0], fit[half:]])
    p, q = phi_s @ coeffs[:half], phi_s @ coeffs[half:]
    if q.min() > 0.0:
        factor = DENOM_FLOOR / q.min()
        u_start = float(np.max(np.abs(p - h * q) / (h * q)))
        if u_start < 1.0:
            return u_start, factor * coeffs / np.concatenate([scale, scale])
    vec = np.zeros(2 * half)
    vec[half] = DENOM_FLOOR   # b_00, the constant of Q
    return 1.0, vec


def bisect_fit(problem: FitProblem) -> FitResult:
    """Bisection on the deviation level u over a growing subset S.

    Starts from [0, u_start], where a least-squares witness holds with
    no LP (``_initial_level``).  Every level solves the LP on the rows of S
    only.  An infeasible S raises ``u_minus``; a feasible witness lowers
    the upper end ``u_hi`` of the bisection on S.  It moves ``u_plus``
    to u if its rows also hold within ``FEASIBILITY_TOL`` at every grid
    point outside S, and otherwise to its deviation over the whole grid,
    if that is lower.  When the bisection on S closes on a witness that
    fails outside S, the worst violators join S and the bisection goes
    on between ``u_minus`` and ``u_plus``.  The fit ends when that
    bracket closes.  S is a sorted array of flat grid indices.  It starts
    as an evenly strided ``SUBSET_PER_COEFF * n_coeffs`` points of the
    flattened grid (all of it on small grids, where the LPs are exactly
    plain bisection's) and grows by at most ``EXCHANGE_PER_COEFF *
    n_coeffs`` points per exchange; it never shrinks.

    An infeasible S is an infeasible grid, since adding rows never
    lowers an LP's optimum slack; but HiGHS returns wrong verdicts at
    degree 4.  So when a pass closes with nothing to exchange and S is
    not the whole grid, the LP at ``u_minus`` on S is solved once more,
    from the basis the pass left, and counted in ``lp_solves``.
    "Infeasible" ends the fit.  A witness is checked on the whole grid
    like every other: if it fails outside S, its worst violators join S
    and the fit goes on; if it holds there, the verdict that set
    ``u_minus`` was wrong, so S becomes the whole grid and the bisection
    restarts on [0, u_minus], as plain bisection.  All LPs share one
    ``WarmStart``.

    A posteriori verification takes ``achieved_dev`` from
    ``harness.report`` on the fit grid, whose pole check cannot fire:
    every witness has Q >= ``DENOM_FLOOR`` at every grid point, within
    the LP tolerances; ``denom_lower_bound`` on the fit grid's rectangle
    gives ``denom_min`` and, when it does not prove Q > 0, ``pole_warning``.
    """
    g = problem.grid
    u_start, witness = _initial_level(problem)
    n_coeffs = 2 * len(problem.basis[1])
    n_start = min(SUBSET_PER_COEFF * n_coeffs, g.size)
    s = np.arange(n_start) * g.size // n_start   # S, sorted grid indices
    u_minus, u_plus, u_hi = 0.0, u_start, u_start
    iterations, lp_solves = 0, 0
    warm = WarmStart()

    # Every pass starts with a gap u_hi - u_minus <= u_start <= 1, since
    # _initial_level returns u_start <= 1 and a restart's gap is a u_minus
    # below u_start.  Each level halves the gap, so a pass closes at
    # BISECTION_TOL_ABS = 1e-12 within 40 levels (2**-40 < 1e-12), and
    # every fit ends with its bracket closed.
    def closed(u_hi):
        return u_hi - u_minus <= max(BISECTION_TOL_ABS,
                                     problem.bisection_tol_rel * u_hi)

    while True:
        # one bisection pass on S, between u_minus and u_hi
        worst = np.empty(0, dtype=int)
        while not closed(u_hi):
            u = 0.5 * (u_minus + u_hi)
            iterations += 1
            vec = check_feasible(build_feasibility(problem, u, s), warm)
            lp_solves += 1
            if vec is None:
                u_minus = u
                continue
            u_hi = u
            worst, level = _check_on_grid(problem, vec, u, s)
            if level < u_plus:
                u_plus, witness = level, vec
        if not worst.size:
            if len(s) == g.size or u_minus == 0.0:
                break
            # confirm u_minus: one more LP on S
            vec = check_feasible(build_feasibility(problem, u_minus, s), warm)
            lp_solves += 1
            if vec is None:
                break
            worst, level = _check_on_grid(problem, vec, u_minus, s)
            if level < u_plus:
                u_plus, witness = level, vec
            if not worst.size:
                # the verdict that set u_minus was wrong: plain bisection
                # below the witness
                s = np.arange(g.size)
                u_minus = 0.0
        s = np.union1d(s, worst[:EXCHANGE_PER_COEFF * n_coeffs])
        u_hi = u_plus
    approx = _coeffs_to_approximant(witness, problem.degree)
    denom_min, proven = denom_lower_bound(approx.denom, g.grid)
    return FitResult(
        approximant=approx, u_minus=u_minus, u_plus=u_plus,
        iterations=iterations, lp_solves=lp_solves,
        active_points=len(s), achieved_dev=report(approx, g.grid).eps_max_abs,
        denom_min=denom_min, pole_warning=not proven, grid=g.grid)
