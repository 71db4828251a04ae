"""Minimax rational fitting by bisection with LP feasibility subproblems.

Minimizing the maximal deviation u of P/Q from the target h over a
finite grid is quasiconvex: for fixed u the sublevel set of coefficient
vectors is a polyhedron, so bisection on u needs only a linear
feasibility test per level.  Each test is posed as a phase-1 LP
(minimize the common slack t subject to all rows relaxed by t; the
system is feasible iff the optimum slack is below the feasibility
tolerance), which is numerically robust and yields a witness vector.

Per grid point k with target h_k and weight w_k (1 in absolute mode,
h_k in relative mode) the rows are

    P_k - (h_k + u*w_k) * Q_k <= 0
   -P_k + (h_k - u*w_k) * Q_k <= 0
    Q_k >= denom_floor

all linear in the stacked coefficient vector (a_ij, b_ij).  Monomial
columns are rescaled to unit max absolute value before solving and the
witness is unscaled afterwards, which keeps the LP well conditioned up
to degree 4 on the default domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from tempint.harness import EvalGrid, oracle_h_row
from tempint.oracle import DEFAULT_CONFIG, OracleConfig
from tempint.rational import BivariatePoly, RationalApproximant, index_pairs


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
    def from_eval_grid(cls, grid: EvalGrid,
                       cfg: OracleConfig = DEFAULT_CONFIG) -> "FitGrid":
        mv = np.repeat(np.array(grid.m_values), len(grid.x_values))
        xv = np.tile(np.array(grid.x_values), len(grid.m_values))
        hv = oracle_h_row(grid.m_values, grid.x_values, cfg).ravel()
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
    weighting: str = "relative"        # or "absolute"
    denom_floor: float = 1.0
    bisection_tol_abs: float = 1e-12
    bisection_tol_rel: float = 1e-4
    max_bisections: int = 60
    feasibility_tol: float = 1e-9

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.weighting not in ("relative", "absolute"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.denom_floor <= 0.0 or self.bisection_tol_abs <= 0.0:
            raise ValueError("denom_floor and bisection tolerances must be > 0")


@dataclass
class FeasibilitySystem:
    """Dense rows A @ c <= b over the stacked (a_ij, b_ij) coefficients."""

    degree: int
    u: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    col_scale: np.ndarray   # per-coefficient rescale applied to the columns
    feasibility_tol: float

    @property
    def n_coeffs(self) -> int:
        return self.a_ub.shape[1]


def _monomial_matrix(degree: int, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    pairs = index_pairs(degree)
    return np.column_stack([x ** i * m ** j for i, j in pairs])


def build_feasibility(problem: FitProblem, u: float) -> FeasibilitySystem:
    """Three rows per grid point: two deviation bounds and the Q floor."""
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u}")
    g = problem.grid
    phi = _monomial_matrix(problem.degree, g.m, g.x)
    scale = np.abs(phi).max(axis=0)
    scale[scale == 0.0] = 1.0   # degenerate grids can zero whole columns
    phi_s = phi / scale
    w = g.h if problem.weighting == "relative" else np.ones_like(g.h)
    zeros = np.zeros_like(phi_s)
    upper = (g.h + u * w)[:, None] * phi_s
    lower = (g.h - u * w)[:, None] * phi_s
    a_ub = np.vstack([
        np.hstack([phi_s, -upper]),
        np.hstack([-phi_s, lower]),
        np.hstack([zeros, -phi_s]),
    ])
    b_ub = np.concatenate([
        np.zeros(2 * g.size),
        -problem.denom_floor * np.ones(g.size),
    ])
    return FeasibilitySystem(
        degree=problem.degree, u=u, a_ub=a_ub, b_ub=b_ub,
        col_scale=np.concatenate([scale, scale]),
        feasibility_tol=problem.feasibility_tol)


def check_feasible(system: FeasibilitySystem):
    """Witness coefficient vector if the system is feasible, else None.

    Phase-1 LP: minimize t subject to A @ c - t <= b, t >= 0.  Always
    solvable; the original system is feasible iff the optimum t is
    within the feasibility tolerance.
    """
    n = system.n_coeffs
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a = np.hstack([system.a_ub, -np.ones((system.a_ub.shape[0], 1))])
    bounds = [(None, None)] * n + [(0.0, None)]
    res = linprog(
        c, A_ub=a, b_ub=system.b_ub, bounds=bounds, method="highs",
        options={"primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9})
    if res.status != 0:
        # tightened tolerances can break down near degeneracy (degree 4 at
        # u ~ 1e-8); the default-accuracy solve still separates the slack
        # optimum from the 1e-9 verdict threshold
        res = linprog(c, A_ub=a, b_ub=system.b_ub, bounds=bounds,
                      method="highs")
    if res.status != 0:
        raise FitError(f"LP solver failed (status {res.status}): {res.message}")
    if res.fun > system.feasibility_tol:
        return None
    return res.x[:n] / system.col_scale


@dataclass
class VerificationReport:
    max_dev: float
    denom_min: float
    grid_points: int
    near_extremal: int   # points within 1% of the max deviation


@dataclass
class FitResult:
    approximant: RationalApproximant
    u_minus: float
    u_plus: float
    iterations: int
    achieved_dev: float        # recomputed against the oracle on the fit grid
    achieved_dev_fine: float   # same on the 4x-refined verification grid
    denom_min: float           # minimum denominator on the verification grid
    converged: bool
    pole_warning: bool
    weighting: str
    grid: EvalGrid             # the fit grid

    def report_text(self) -> str:
        lines = [
            f"u_minus {self.u_minus!r}",
            f"u_plus {self.u_plus!r}",
            f"iterations {self.iterations}",
            f"achieved_dev {self.achieved_dev!r}",
            f"denom_min {self.denom_min!r}",
            f"mode {self.weighting}",
            f"grid-spec {self.grid.spec}",
        ]
        return "\n".join(lines) + "\n"


def _coeffs_to_approximant(vec: np.ndarray, degree: int) -> RationalApproximant:
    pairs = index_pairs(degree)
    half = len(pairs)
    a = dict(zip(pairs, (float(v) for v in vec[:half])))
    b = dict(zip(pairs, (float(v) for v in vec[half:])))
    # Presentation normalization: unit |b_00| unless it is near zero.
    # The witness has Q >= denom_floor > 0 on the grid; dividing by the
    # pivot's magnitude keeps it positive.
    b00 = b[(0, 0)]
    pivot = abs(b00) if abs(b00) >= 1e-3 else abs(max(b.values(), key=abs))
    a = {k: v / pivot for k, v in a.items()}
    b = {k: v / pivot for k, v in b.items()}
    return RationalApproximant(BivariatePoly(degree, a),
                               BivariatePoly(degree, b))


def _deviation_on(approx: RationalApproximant, g: FitGrid,
                  weighting: str) -> tuple[np.ndarray, float]:
    """|deviation| of P/Q from the targets at every point, and min Q."""
    p = np.asarray(approx.numer.eval(g.m, g.x), dtype=float)
    q = np.asarray(approx.denom.eval(g.m, g.x), dtype=float)
    ratio = p / q
    dev = ratio / g.h - 1.0 if weighting == "relative" else ratio - g.h
    return np.abs(dev), float(q.min())


def bisect_fit(problem: FitProblem,
               cfg: OracleConfig = DEFAULT_CONFIG) -> FitResult:
    """3-step bisection on the deviation level u.

    Starts from [0, max|h|] (absolute mode) or [0, 1] (relative mode;
    the zero numerator with Q = denom_floor witnesses feasibility at
    u = 1), halves the interval keeping the upper end feasible, and
    returns the last feasible witness.  A posteriori verification
    recomputes the deviation against the oracle on the fit grid and on
    a 4x-refined grid, recording the minimum denominator found.
    """
    g = problem.grid
    if problem.weighting == "relative":
        u_plus = 1.0
    else:
        u_plus = float(np.abs(g.h).max())
    u_minus = 0.0
    witness = check_feasible(build_feasibility(problem, u_plus))
    if witness is None:
        raise FitError(f"initial level u = {u_plus} unexpectedly infeasible")
    iterations = 0
    while (u_plus - u_minus > max(problem.bisection_tol_abs,
                                  problem.bisection_tol_rel * u_plus)
           and iterations < problem.max_bisections):
        u = 0.5 * (u_minus + u_plus)
        vec = check_feasible(build_feasibility(problem, u))
        if vec is not None:
            u_plus, witness = u, vec
        else:
            u_minus = u
        iterations += 1
    converged = (u_plus - u_minus
                 <= max(problem.bisection_tol_abs,
                        problem.bisection_tol_rel * u_plus))
    approx = _coeffs_to_approximant(witness, problem.degree)
    achieved = float(_deviation_on(approx, g, problem.weighting)[0].max())
    fine = FitGrid.from_eval_grid(g.grid.refined(4), cfg)
    dev_fine, denom_min = _deviation_on(approx, fine, problem.weighting)
    return FitResult(
        approximant=approx, u_minus=u_minus, u_plus=u_plus,
        iterations=iterations, achieved_dev=achieved,
        achieved_dev_fine=float(dev_fine.max()), denom_min=denom_min,
        converged=converged, pole_warning=denom_min <= 0.0,
        weighting=problem.weighting, grid=g.grid)


def verify_fit(result: FitResult, fine_factor: int,
               cfg: OracleConfig = DEFAULT_CONFIG) -> VerificationReport:
    """Deviation and denominator sweep on a ``fine_factor``-refined grid."""
    if fine_factor < 1:
        raise ValueError("fine_factor must be >= 1")
    fine = FitGrid.from_eval_grid(result.grid.refined(fine_factor), cfg)
    dev, denom_min = _deviation_on(result.approximant, fine, result.weighting)
    max_dev = float(dev.max())
    near = int(np.count_nonzero(dev >= 0.99 * max_dev))
    return VerificationReport(max_dev=max_dev, denom_min=denom_min,
                              grid_points=fine.size, near_extremal=near)
