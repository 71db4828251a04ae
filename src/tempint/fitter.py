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
``u_plus`` always rests on the whole grid, and full-grid LPs confirm
``u_minus`` (see ``bisect_fit``).

Consecutive LPs differ only in the (1 +- u) * h coefficients and in the
points of S, so every LP of a fit goes through one HiGHS instance with
presolve off, started from the optimal basis of the last LP solved
(``WarmStart``).  A warm solve that does not end optimal falls back to a
cold ``linprog`` solve.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import OptimizeResult, linprog
# the HiGHS binding that linprog(method="highs") itself loads
from scipy.optimize._highspy._core import (HighsBasis, HighsBasisStatus,
                                           HighsLp, HighsModelStatus,
                                           MatrixFormat, _Highs)
from scipy.sparse import csc_array

from tempint.harness import EvalGrid, oracle_h_row
from tempint.rational import BivariatePoly, RationalApproximant, index_pairs


# Exchange sizing, in multiples of the coefficient count n_coeffs
SUBSET_PER_COEFF = 16     # starting size of S
EXCHANGE_PER_COEFF = 4    # most violators added to S per exchange

DENOM_FLOOR = 1.0          # Q >= DENOM_FLOOR at every grid point
BISECTION_TOL_ABS = 1e-12  # the bracket closes within this, or tol_rel * u
MAX_BISECTIONS = 60        # most levels per bisection pass on S
FEASIBILITY_TOL = 1e-9     # phase-1 slack, and row excess, of a feasible u
# HiGHS primal and dual feasibility tolerances of the first solve of an LP
TIGHT_OPTIONS = {"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9}


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
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
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
    points: np.ndarray | None = None   # flat grid indices of the rows; None: all

    @property
    def n_coeffs(self) -> int:
        return self.a_ub.shape[1]


def _monomial_matrix(degree: int, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    pairs = index_pairs(degree)
    return np.column_stack([x ** i * m ** j for i, j in pairs])


def build_feasibility(problem: FitProblem, u: float,
                      points: np.ndarray | None = None) -> FeasibilitySystem:
    """Three rows per grid point: two deviation bounds and the Q floor.

    ``points`` (flat grid indices) restricts the rows to those points.
    The column scale always comes from the whole grid, so each subset
    row is bit-identical to its row in the full system.
    """
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u}")
    phi_s, scale = problem.basis
    h = problem.grid.h
    if points is not None:
        phi_s, h = phi_s[points], h[points]
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
    """One HiGHS instance for the LPs of a fit, and the optimal basis of
    its last solve.

    The row statuses are kept per grid point: three rows each, in
    ``build_feasibility`` order.  An LP on more points than the last one
    starts from that basis, with the rows of its new points basic (their
    slacks enter the basis), so the basis stays valid.  Points that no
    stored solve covered are basic too.
    """

    def __init__(self, grid_size: int):
        self.highs = _Highs()
        for key, value in {"output_flag": False, "presolve": "off",
                           **TIGHT_OPTIONS}.items():
            self.highs.setOptionValue(key, value)
        self.col_status = None
        self.row_status = np.full((3, grid_size), HighsBasisStatus.kBasic,
                                  dtype=object)

    def solve(self, a: np.ndarray, b_ub: np.ndarray,
              points) -> OptimizeResult | None:
        """The phase-1 LP min t, a @ (c, t) <= b_ub, t >= 0, seeded from the
        last basis, or None if HiGHS does not end optimal.  ``points`` are
        the grid indices of the rows (None: all)."""
        n_rows, n_cols = a.shape
        sparse = csc_array(a)
        lp = HighsLp()
        lp.num_col_, lp.num_row_ = n_cols, n_rows
        lp.col_cost_ = np.eye(n_cols)[-1]
        lp.col_lower_ = np.r_[np.full(n_cols - 1, -np.inf), 0.0]
        lp.col_upper_ = np.full(n_cols, np.inf)
        lp.row_lower_ = np.full(n_rows, -np.inf)
        lp.row_upper_ = b_ub
        matrix = lp.a_matrix_
        matrix.format_ = MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = n_cols, n_rows
        matrix.start_, matrix.index_ = sparse.indptr, sparse.indices
        matrix.value_ = sparse.data
        highs = self.highs
        highs.passModel(lp)
        if self.col_status is not None:
            rows = self.row_status if points is None else (
                self.row_status[:, points])
            basis = HighsBasis()
            basis.valid = True
            basis.col_status = self.col_status
            basis.row_status = rows.ravel().tolist()
            highs.setBasis(basis)
        highs.run()
        if highs.getModelStatus() != HighsModelStatus.kOptimal:
            return None
        basis = highs.getBasis()
        self.col_status = basis.col_status
        rows = np.array(basis.row_status, dtype=object).reshape(3, -1)
        if points is not None:
            # a new array, so a copy of this object keeps its own basis
            full = self.row_status.copy()
            full[:, points] = rows
            rows = full
        self.row_status = rows
        return OptimizeResult(status=0,
                              fun=highs.getInfo().objective_function_value,
                              x=np.array(highs.getSolution().col_value))


def _solve_phase1(system: FeasibilitySystem,
                  warm: WarmStart | None) -> OptimizeResult:
    """Every LP of the fitter: minimize t subject to A @ c - t <= b, t >= 0.

    A warm solve comes first if there is warm state; if it does not end
    optimal, or with no warm state, ``linprog`` solves the LP cold.
    """
    a = np.hstack([system.a_ub, -np.ones((system.a_ub.shape[0], 1))])
    res = None if warm is None else warm.solve(a, system.b_ub, system.points)
    if res is not None:
        return res
    c = np.eye(a.shape[1])[-1]
    bounds = [(None, None)] * system.n_coeffs + [(0.0, None)]
    res = linprog(c, A_ub=a, b_ub=system.b_ub, bounds=bounds, method="highs",
                  options=TIGHT_OPTIONS)
    if res.status != 0:
        # tightened tolerances can break down near degeneracy (degree 4 at
        # u ~ 1e-8); the default-accuracy solve still separates the slack
        # optimum from the 1e-9 verdict threshold
        res = linprog(c, A_ub=a, b_ub=system.b_ub, bounds=bounds,
                      method="highs")
    return res


def check_feasible(system: FeasibilitySystem, warm: WarmStart | None = None):
    """Witness coefficient vector if the system is feasible, else None.

    Phase-1 LP: minimize t subject to A @ c - t <= b, t >= 0.  Always
    solvable; the original system is feasible iff the optimum t is
    within ``FEASIBILITY_TOL``.  With ``warm``, HiGHS starts from its
    last basis (see ``WarmStart``).
    """
    res = _solve_phase1(system, warm)
    if res.status != 0:
        raise FitError(f"LP solver failed (status {res.status}): {res.message}")
    if res.fun > FEASIBILITY_TOL:
        return None
    return res.x[:system.n_coeffs] / system.col_scale


@dataclass
class FitResult:
    approximant: RationalApproximant
    u_minus: float
    u_plus: float
    iterations: int            # bisection levels of all passes
    lp_solves: int             # LPs of the levels, confirmations too
    active_points: int         # final size of the subset S
    achieved_dev: float        # recomputed against the oracle on the fit grid
    achieved_dev_fine: float   # same on the 4x-refined verification grid
    denom_min: float           # minimum denominator on the verification grid
    converged: bool
    pole_warning: bool
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


def _deviation_on(approx: RationalApproximant,
                  g: FitGrid) -> tuple[np.ndarray, float]:
    """|eps| of P/Q against the targets at every point, and min Q."""
    p = np.asarray(approx.numer.eval(g.m, g.x), dtype=float)
    q = np.asarray(approx.denom.eval(g.m, g.x), dtype=float)
    return np.abs(p / q / g.h - 1.0), float(q.min())


def _check_on_grid(problem: FitProblem, vec: np.ndarray, u: float,
                   in_s: np.ndarray) -> tuple[np.ndarray, float]:
    """Violators of a witness outside S, worst first, and its verified level.

    A violator is a grid point outside S where one of the witness's rows
    at level u exceeds ``FEASIBILITY_TOL``.  With none, the witness holds
    at u.  Otherwise it holds at its deviation over the whole grid, if
    its denominator keeps the floor there, and at no level if not.
    """
    if in_s.all():
        return np.empty(0, dtype=int), u
    phi_s, scale = problem.basis
    h = problem.grid.h
    half = len(scale)
    p = phi_s @ (vec[:half] * scale)
    q = phi_s @ (vec[half:] * scale)
    floor_excess = DENOM_FLOOR - q
    excess = np.maximum.reduce([p - (h + u * h) * q, (h - u * h) * q - p,
                                floor_excess])
    excess[in_s] = -np.inf
    bad = np.flatnonzero(excess > FEASIBILITY_TOL)
    if not bad.size:
        return bad, u
    level = math.inf
    if np.all(q > 0.0) and floor_excess.max() <= FEASIBILITY_TOL:
        level = float(np.max(np.abs(p - h * q) / (h * q)))
    return bad[np.argsort(-excess[bad], kind="stable")], level


def _initial_level(problem: FitProblem) -> tuple[float, np.ndarray]:
    """The upper end u_start of the first bracket and a witness there.

    The witness P = 0, Q = DENOM_FLOOR holds at every grid point with no
    LP at u = 1, because h > 0: -(h + u*h) * Q <= 0 always,
    (h - u*h) * Q = 0 at u = 1, and Q meets the floor.
    """
    vec = np.zeros(2 * len(index_pairs(problem.degree)))
    vec[len(vec) // 2] = DENOM_FLOOR   # b_00, the constant of Q
    return 1.0, vec


def bisect_fit(problem: FitProblem) -> FitResult:
    """Bisection on the deviation level u over a growing subset S.

    Starts from [0, 1], where P = 0, Q = DENOM_FLOOR holds with no LP
    (``_initial_level``).  Every level solves the LP on the rows of S
    only.  An infeasible S raises ``u_minus``; a feasible witness lowers
    the upper end ``u_hi`` of the bisection on S.  It moves ``u_plus``
    to u if its rows also hold within ``FEASIBILITY_TOL`` at every grid
    point outside S, and otherwise to its deviation over the whole grid,
    if that is lower.  When the bisection on S closes on a witness that
    fails outside S, the worst violators join S and the bisection goes
    on between ``u_minus`` and ``u_plus``.  The fit ends when that
    bracket closes; ``MAX_BISECTIONS`` bounds the levels of one pass on
    S.  S starts as an evenly strided ``SUBSET_PER_COEFF * n_coeffs``
    points of the flattened grid (all of it on small grids, where the
    LPs are exactly plain bisection's) and grows by at most
    ``EXCHANGE_PER_COEFF * n_coeffs`` points per exchange.

    A subset verdict "infeasible" is not proof for the whole grid (HiGHS
    returns wrong ones at degree 4), so ``u_minus`` is confirmed by a
    full-grid LP before the first exchange builds on it, and again
    before returning if it rose since.  If the full grid is feasible
    there, that witness becomes ``u_plus``, S becomes the whole grid and
    the bisection restarts from the initial bracket.  Levels at or above
    ``u_plus`` then pass without an LP, and the LPs below it are exactly
    plain bisection's.

    All LPs share one ``WarmStart``.  A confirmation starts from the
    basis on S but leaves it stored, so the next pass on S extends it.

    A posteriori verification recomputes the deviation against the
    oracle on the fit grid and on a 4x-refined grid, recording the
    minimum denominator found.
    """
    g = problem.grid
    u_start, witness = _initial_level(problem)
    n_coeffs = 2 * len(problem.basis[1])
    in_s = np.zeros(g.size, dtype=bool)
    n_start = min(SUBSET_PER_COEFF * n_coeffs, g.size)
    in_s[np.arange(n_start) * g.size // n_start] = True
    u_minus, u_plus, u_hi = 0.0, u_start, u_start
    confirmed = 0.0           # the highest u_minus a full-grid LP confirmed
    iterations, lp_solves = 0, 0
    warm = WarmStart(g.size)

    def closed(u_hi):
        return u_hi - u_minus <= max(BISECTION_TOL_ABS,
                                     problem.bisection_tol_rel * u_hi)

    while True:
        # one bisection pass on S, between u_minus and u_hi
        points = None if in_s.all() else np.flatnonzero(in_s)
        worst, levels = np.empty(0, dtype=int), 0
        while not (closed(u_hi) or levels == MAX_BISECTIONS):
            u = 0.5 * (u_minus + u_hi)
            levels += 1
            if u >= u_plus:
                # only after a restart: the witness holds at u_plus <= u
                u_hi = u
                continue
            vec = check_feasible(build_feasibility(problem, u, points), warm)
            lp_solves += 1
            if vec is None:
                u_minus = u
                continue
            u_hi = u
            worst, level = _check_on_grid(problem, vec, u, in_s)
            if level < u_plus:
                u_plus, witness = level, vec
        iterations += levels
        exchange = bool(worst.size) and closed(u_hi)
        if points is not None and u_minus > confirmed and (
                confirmed == 0.0 or not exchange):
            # on a copy, so the basis on S stays stored
            vec = check_feasible(build_feasibility(problem, u_minus),
                                 copy.copy(warm))
            lp_solves += 1
            if vec is not None:
                # a subset verdict was wrong: plain bisection from the start
                in_s[:] = True
                u_minus, u_plus, u_hi = 0.0, u_minus, u_start
                witness = vec
                continue
            confirmed = u_minus
        if not exchange:
            break
        in_s[worst[:EXCHANGE_PER_COEFF * n_coeffs]] = True
        u_hi = u_plus
    converged = closed(u_plus)
    approx = _coeffs_to_approximant(witness, problem.degree)
    achieved = float(_deviation_on(approx, g)[0].max())
    fine_dev, denom_min = _deviation_on(
        approx, FitGrid.from_eval_grid(g.grid.refined(4)))
    return FitResult(
        approximant=approx, u_minus=u_minus, u_plus=u_plus,
        iterations=iterations, lp_solves=lp_solves,
        active_points=int(in_s.sum()), achieved_dev=achieved,
        achieved_dev_fine=float(fine_dev.max()), denom_min=denom_min,
        converged=converged, pole_warning=denom_min <= 0.0, grid=g.grid)
