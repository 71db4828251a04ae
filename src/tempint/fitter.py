"""Minimax rational fitting by differential correction on a growing subset.

The objective is the paper's accuracy metric: the maximal relative
deviation u = max |eps|, eps = (P/Q) / h - 1, of P/Q from the target h
over a finite grid.  For fixed u the coefficient vectors (a_ij, b_ij)
with |P_k - h_k Q_k| <= u h_k Q_k and Q_k >= DENOM_FLOOR at every grid
point k form a polyhedron, so the problem is quasiconvex.  The fitter
solves it by differential correction (Cheney & Loeb 1961; Barrodale,
Powell & Roberts, SIAM J. Numer. Anal. 9 (1972), who prove convergence
on finite point sets).  Around a witness c0 with denominator Q0 and
deviation delta, one LP

    minimize t  subject to  |P_k - h_k Q_k| - u h_k Q_k <= t delta h_k Q0_k,
                            Q_k >= DENOM_FLOOR,  t >= -1

at u = delta is a step: its witness has a lower deviation whenever
t < 0.  The same LP at a level u below delta is a feasibility test: the
system is feasible at u iff the optimum t is within ``FEASIBILITY_TOL``.
The LP is posed in increment form, c = c0 + delta * d, with Q's constant
coefficient held fixed as the normalization, and each deviation row is
divided by delta h_k Q0_k (the floor row by delta Q0_k).  So the rows'
coefficients and right-hand sides are O(1), and HiGHS's absolute
tolerances act relative to the level.

Monomial columns are rescaled to unit max absolute value over the whole
grid.  On a grid of n_x x values and n_m m values the LPs move x^i m^j
iff i < n_x and j < n_m, in P and Q alike, and hold the rest at 0.  Any
other monomial is there a combination of moved ones of lower total
degree (x^i with i >= n_x equals its interpolant of degree < n_x), and
the moved ones are independent (a tensor Vandermonde system).

The LP cost grows with the row count, not with the difficulty, and a
minimax fit has only about n_coeffs + 1 extremal points.  So the LPs
run on a subset S of the grid and exchange points into it (a
cutting-plane method, as in the Remez exchange): S starts as
``SUBSET_PER_COEFF * n_coeffs`` evenly strided points, and each witness
adds at most ``EXCHANGE_PER_COEFF * n_coeffs`` of its worst points
outside S.  Every witness is measured on the whole grid with numpy, so
``u_plus`` rests on the whole grid; ``u_minus`` does too, because adding
rows never lowers an LP's optimum, so an infeasible S is an infeasible
grid.  The fit's ``achieved_dev`` is ``harness.report``'s, as ``tempint
eval`` prints it.

Every LP of a fit goes through one HiGHS instance with presolve off,
started from the optimal basis of the last LP solved (``WarmStart``),
the fitter's only LP solver.  A solve that does not end optimal runs
again from the same basis at HiGHS's default tolerances.  A step that
fails both ends the steps; a lower-end LP is solved once more from no
basis, and if that fails too the fit fails with ``FitError``.
"""

from __future__ import annotations

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
FEASIBILITY_TOL = 1e-9     # optimum t of an LP feasible at its level
STEP_GAIN = 0.01           # steps end when one lowers the deviation less
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
                f"{MAX_DEGREE} the bracket is not sound")
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

    @cached_property
    def monomials(self) -> np.ndarray:
        """``index_pairs`` positions of the monomials the LPs move (see
        the module docstring), the constant first."""
        g = self.grid.grid
        n_x, n_m = len(g.x_values), len(g.m_values)
        return np.array([k for k, (i, j) in enumerate(index_pairs(self.degree))
                         if i < n_x and j < n_m])

    @property
    def columns(self) -> np.ndarray:
        """``monomials`` as indices of the stacked (a_ij, b_ij) vector, in
        P, then in Q; Q's constant is the normalization."""
        return np.r_[self.monomials, len(self.basis[1]) + self.monomials]


@dataclass
class FeasibilitySystem:
    """Rows A @ d <= b of one LP at level u, over the increment d of the
    witness center + delta * d in the coefficients ``columns``.  The LP
    holds the increment of Q's constant, LP column ``normalization``,
    at 0; the rows alone leave the scale of P and Q free."""

    u: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    points: np.ndarray      # flat grid indices of the rows
    center: np.ndarray      # the witness the increment starts from
    delta: float            # its deviation on ``points``, the row scale
    columns: np.ndarray     # the moved coefficients, in the stacked vector
    col_scale: np.ndarray   # their column rescale

    @property
    def normalization(self) -> int:
        return len(self.columns) // 2   # Q's constant, first of Q's columns

    @property
    def n_coeffs(self) -> int:
        return self.a_ub.shape[1]

    def witness(self, d: np.ndarray) -> np.ndarray:
        """The stacked (a_ij, b_ij) coefficients at increment d."""
        vec = self.center.copy()
        vec[self.columns] += self.delta * d / self.col_scale
        return vec


def _monomial_matrix(degree: int, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    pairs = index_pairs(degree)
    return np.column_stack([x ** i * m ** j for i, j in pairs])


def _errors(problem: FitProblem,
            vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A witness's relative error (P - hQ) / (hQ) and its Q at every
    grid point, evaluated on the scaled basis."""
    phi_s, scale = problem.basis
    coeffs = vec * np.tile(scale, 2)
    p, q = phi_s @ coeffs[:len(scale)], phi_s @ coeffs[len(scale):]
    hq = problem.grid.h * q
    return (p - hq) / hq, q


def build_feasibility(problem: FitProblem, u: float,
                      points: np.ndarray | None = None,
                      center: np.ndarray | None = None) -> FeasibilitySystem:
    """The LP at level u on ``points``, in increment form around the
    witness ``center``: three rows per point, two deviation bounds and
    the Q floor, each divided by delta h_k Q0_k (the floor by delta Q0_k).

    With the center's relative error e0 and its deviation delta on the
    points, and the moved columns phi of P and Q, the rows are

        phi d_a / (h Q0) - (1 + u) phi d_b / Q0 - t <= (u - e0) / delta
       -phi d_a / (h Q0) + (1 - u) phi d_b / Q0 - t <= (u + e0) / delta
                                  -phi d_b / Q0      <= (Q0 - DENOM_FLOOR)
                                                        / (delta Q0)

    with t left to ``WarmStart.solve``; a floor the center misses by
    rounding is held at its Q0.  ``points`` (flat grid indices) are the
    whole grid by default, and ``center`` the least-squares witness.
    """
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u}")
    if points is None:
        points = np.arange(problem.grid.size)
    if center is None:
        center = _initial_witness(problem)
    err, q0 = (v[points] for v in _errors(problem, center))
    delta = float(np.abs(err).max())
    if not delta > 0.0:
        raise ValueError("the center fits every point exactly")
    phi_s, scale = problem.basis
    phi_s = phi_s[points][:, problem.monomials]
    p_cols = phi_s / (problem.grid.h[points] * q0)[:, None]
    q_cols = phi_s / q0[:, None]
    a_ub = np.block([
        [p_cols, -(1.0 + u) * q_cols],
        [-p_cols, (1.0 - u) * q_cols],
        [np.zeros_like(p_cols), -q_cols],
    ])
    b_ub = np.concatenate([
        (u - err) / delta,
        (u + err) / delta,
        np.maximum(q0 - DENOM_FLOOR, 0.0) / (delta * q0),
    ])
    return FeasibilitySystem(u=u, a_ub=a_ub, b_ub=b_ub, points=points,
                             center=center, delta=delta,
                             columns=problem.columns,
                             col_scale=np.tile(scale, 2)[problem.columns])


class WarmStart:
    """The fitter's LP solver: one HiGHS instance for the LPs of a fit,
    and the optimal basis of its last warm solve (see ``solve``).

    ``basis`` is the ``HighsBasis`` that HiGHS returned for the last LP,
    whose rows belong to the sorted grid points ``points``.  The next LP
    on the same points starts from it as it is.  S only grows, so an LP
    on other points (after an exchange) has a superset of them.  Its
    basis is the stored one with rows for the new points, written into
    ``basis.row_status`` in place: the stored points keep their
    statuses, three rows each in ``build_feasibility`` order, and the
    rows of the new points are basic (their slacks enter the basis), so
    it stays valid.  An LP that no solve ends optimal
    leaves that basis stored.
    """

    def __init__(self):
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        self.highs.setOptionValue("presolve", "off")
        self.basis, self.points = None, None

    def solve(self, system: FeasibilitySystem) -> tuple[float, np.ndarray]:
        """The optimum t and solution (d, t) of the LP min t subject to
        the rows of ``system``, its deviation rows relaxed by t, and
        t >= -1, with Q's constant held at the center's.  At t = -1 a
        row asks |P - hQ| <= u h (Q - Q0), so the bound holds t where the
        normalization cannot.

        A ladder of at most two solves: HiGHS at ``TIGHT_OPTIONS`` from
        the stored basis, if there is one; if that does not end optimal,
        HiGHS again from the same basis at its default tolerances.  Raises
        ``FitError``, with the last run status and model status, if that
        does not either.
        """
        n_points = len(system.points)
        t_col = np.repeat([-1.0, 0.0], [2 * n_points, n_points])
        a = np.hstack([system.a_ub, t_col[:, None]])
        n_rows, n_cols = a.shape
        cost = np.eye(n_cols)[-1]
        sparse = csc_array(a)
        lower = np.r_[np.full(n_cols - 1, -np.inf), -1.0]
        upper = np.full(n_cols, np.inf)
        lower[system.normalization] = upper[system.normalization] = 0.0
        highs = self.highs
        _check_status(highs.passModel(
            n_cols, n_rows, sparse.nnz, MatrixFormat.kColwise,
            ObjSense.kMinimize, 0.0, cost, lower, upper,
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
                return (highs.getInfo().objective_function_value,
                        np.array(highs.getSolution().col_value))
        raise FitError(
            f"LP solver failed: run status {run_status.name}, model status "
            f"{highs.modelStatusToString(model_status)}")


def _check_status(status: HighsStatus, call: str) -> None:
    """A HiGHS call that fails is an error, not a silent cold solve."""
    if status == HighsStatus.kError:
        raise FitError(f"HiGHS {call} failed")


def check_feasible(system: FeasibilitySystem, warm: WarmStart):
    """Witness coefficient vector if the system is feasible, else None.

    The LP (``WarmStart.solve``) is always solvable; the system is
    feasible at its level u iff its optimum t is within
    ``FEASIBILITY_TOL``, a fraction of the row scale delta.  The witness
    is the solution's, at any optimum t <= ``FEASIBILITY_TOL``: at
    u = delta, a differential-correction step.
    """
    slack, x = warm.solve(system)
    if slack > FEASIBILITY_TOL:
        return None
    return system.witness(x[:system.n_coeffs])


@dataclass
class FitResult:
    """A fitted P/Q, its bracket on the fit grid, and its verification.

    ``u_plus`` is the written witness's deviation over the fit grid, as
    the fitter measures it on its scaled basis, and ``achieved_dev`` the
    same deviation by ``harness.report``.  ``u_minus`` is a level at
    which the LP on S, and so the grid, is infeasible (0 for a fit that
    reaches ``BISECTION_TOL_ABS``); see ``bisect_fit``.
    """

    approximant: RationalApproximant
    u_minus: float
    u_plus: float
    iterations: int            # differential-correction steps, one LP each
    lp_solves: int             # LPs of the steps and of the lower end
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


def _check_on_grid(problem: FitProblem, vec: np.ndarray,
                   s: np.ndarray) -> tuple[np.ndarray, float]:
    """Violators of a witness outside S, worst first, and its deviation
    over the whole grid.

    A violator is a grid point outside S where the witness deviates more
    than anywhere on S, or where its Q misses the floor by more than
    ``FEASIBILITY_TOL``; there its deviation counts as infinite.
    """
    err, q = _errors(problem, vec)
    dev = np.where(q >= DENOM_FLOOR - FEASIBILITY_TOL, np.abs(err), np.inf)
    excess = dev - dev[s].max()
    excess[s] = -np.inf
    bad = np.flatnonzero(excess > 0.0)
    return bad[np.argsort(-excess[bad], kind="stable")], float(dev.max())


def _initial_witness(problem: FitProblem) -> np.ndarray:
    """The least-squares witness the first step starts from.

    It minimizes sum (P_k/h_k - Q_k)^2 over the moved ``columns`` with
    b_00 = 1, and is scaled so that min Q = DENOM_FLOOR on the grid.  If
    its Q is not positive at every grid point, or its deviation is not
    below 1, the start is P = 0, Q = DENOM_FLOOR, whose deviation is 1
    at every point because h > 0.
    """
    phi_s, scale = problem.basis
    h = problem.grid.h
    half = len(scale)
    cols = np.r_[problem.monomials, half + problem.monomials[1:]]
    # b_00 = 1 moves the constant column of Q to the right-hand side
    fit = np.linalg.lstsq(np.hstack([phi_s / h[:, None], -phi_s])[:, cols],
                          phi_s[:, 0], rcond=None)[0]
    coeffs = np.zeros(2 * half)
    coeffs[cols], coeffs[half] = fit, 1.0
    p, q = phi_s @ coeffs[:half], phi_s @ coeffs[half:]
    if q.min() > 0.0 and np.max(np.abs(p - h * q) / (h * q)) < 1.0:
        return DENOM_FLOOR / q.min() * coeffs / np.tile(scale, 2)
    vec = np.zeros(2 * half)
    vec[half] = DENOM_FLOOR   # b_00, the constant of Q
    return vec


def bisect_fit(problem: FitProblem) -> FitResult:
    """Differential-correction steps on a growing subset S, and one
    infeasible LP for the lower end.

    The witness starts as the least-squares one (``_initial_witness``)
    and is always the one of least deviation over the whole grid,
    ``u_plus``.  A step is the LP on S at level u = ``u_plus``, around
    the witness (``build_feasibility``).  Each LP's witness is measured
    on the whole grid: its worst violators outside S join S, and it
    becomes the witness if its deviation is lower.  A witness's worst
    point is then in S, so its deviation on S is ``u_plus``.  The steps
    end when one lowers ``u_plus`` by less than ``STEP_GAIN`` and adds
    no point to S.  Then the same LP at u = ``u_plus`` - gap, gap =
    max(``BISECTION_TOL_ABS``, tol_rel * ``u_plus``), sets the lower end:
    "infeasible" ends the fit with ``u_minus`` = u.  A witness it finds
    lowers ``u_plus``, and the steps go on from it if it gains at least
    half the gap or adds points to S; if it does neither, its verdict is
    below the LP's resolution, and the gap doubles.  A level that
    reaches 0, or a ``u_plus`` within ``BISECTION_TOL_ABS`` (an exact
    fit), ends the fit with ``u_minus`` = 0.  A step whose LP no rung
    of ``WarmStart.solve`` ends optimal ends the steps like a step that
    finds no witness; such a lower-end LP runs once more from no stored
    basis.  ``iterations`` counts the steps, and ``lp_solves`` every LP.

    Every LP holds Q's constant at the witness's value and Q at or
    above ``DENOM_FLOOR`` on S, so ``u_minus`` says that no P/Q so
    normalized reaches it on S; the rows alone, as the tests' cold
    referee solves them, are free in scale.

    S is a sorted array of flat grid indices.  It starts as an evenly
    strided ``SUBSET_PER_COEFF * n_coeffs`` points of the flattened grid
    (all of it on small grids) and grows by at most ``EXCHANGE_PER_COEFF
    * n_coeffs`` points per LP; it never shrinks.  It grows finitely
    often, each run of steps lowers ``u_plus`` by ``STEP_GAIN`` per LP
    and each continuation by half a gap, and the gap doubles up to
    ``u_plus``, so every fit ends.  All LPs share one ``WarmStart``.

    A posteriori verification takes ``achieved_dev`` from
    ``harness.report`` on the fit grid, whose pole check cannot fire:
    every witness has Q >= ``DENOM_FLOOR`` at every grid point, within
    the LP tolerances; ``denom_lower_bound`` on the fit grid's rectangle
    gives ``denom_min`` and, when it does not prove Q > 0, ``pole_warning``.
    """
    g = problem.grid
    n_coeffs = 2 * len(problem.basis[1])
    n_start = min(SUBSET_PER_COEFF * n_coeffs, g.size)
    s = np.arange(n_start) * g.size // n_start   # S, sorted grid indices
    warm = WarmStart()

    def measure(vec):
        """vec's deviation over the grid, and whether S grew from it."""
        nonlocal s
        worst, dev = _check_on_grid(problem, vec, s)
        s = np.union1d(s, worst[:EXCHANGE_PER_COEFF * n_coeffs])
        return dev, worst.size > 0

    witness = _initial_witness(problem)
    u_plus = measure(witness)[0]
    u_minus, iterations, lp_solves = 0.0, 0, 0
    lower, widen = False, 1.0   # lower-end LP next, and its gap's factor
    while u_plus > BISECTION_TOL_ABS:
        gap = widen * max(BISECTION_TOL_ABS,
                          problem.bisection_tol_rel * u_plus)
        u = u_plus - gap if lower else u_plus
        if u <= 0.0:
            break
        lp_solves += 1
        iterations += not lower
        system = build_feasibility(problem, u, s, witness)
        try:
            vec = check_feasible(system, warm)
        except FitError:
            vec = None   # a failed step ends the steps like an empty one
            if lower:    # a warm basis can break an LP that solves cold
                warm.basis = None
                lp_solves += 1
                vec = check_feasible(system, warm)
        if vec is None:
            if lower:
                u_minus = u
                break
            lower = True
            continue
        dev, grew = measure(vec)
        gain = u_plus - dev
        if not lower:
            lower = not grew and gain < STEP_GAIN * u_plus
        elif grew or gain >= gap / 2.0:
            lower, widen = False, 1.0
        else:
            widen *= 2.0
        if gain > 0.0:
            witness, u_plus = vec, dev
    approx = _coeffs_to_approximant(witness, problem.degree)
    denom_min, proven = denom_lower_bound(approx.denom, g.grid)
    return FitResult(
        approximant=approx, u_minus=u_minus, u_plus=u_plus,
        iterations=iterations, lp_solves=lp_solves,
        active_points=len(s), achieved_dev=report(approx, g.grid).eps_max_abs,
        denom_min=denom_min, pole_warning=not proven, grid=g.grid)
