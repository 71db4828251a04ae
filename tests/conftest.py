import numpy as np
import pytest
from scipy.optimize import linprog

from tempint import fitter
from tempint.harness import EvalGrid
from tempint.rational import BivariatePoly, RationalApproximant


@pytest.fixture(scope="session")
def paper_eval_grid():
    return EvalGrid.from_spec("paper-eval")


@pytest.fixture(scope="session")
def arrhenius_grid():
    return EvalGrid.from_spec("arrhenius")


@pytest.fixture(scope="session")
def cold_feasible():
    """A referee for the fitter's verdicts that shares none of its solve
    path: the phase-1 LP of a ``FeasibilitySystem`` solved cold by scipy's
    ``linprog``, at the tight tolerances and, if that fails, at the
    defaults.  True if the system is feasible."""
    def verdict(system):
        a = np.hstack([system.a_ub, -np.ones((len(system.b_ub), 1))])
        cost = np.eye(a.shape[1])[-1]
        bounds = [(None, None)] * system.n_coeffs + [(0.0, None)]
        for options in (fitter.TIGHT_OPTIONS, None):
            res = linprog(cost, A_ub=a, b_ub=system.b_ub, bounds=bounds,
                          method="highs", options=options)
            if res.status == 0:
                return res.fun <= fitter.FEASIBILITY_TOL
        raise AssertionError(f"cold solve failed: {res.message}")
    return verdict


@pytest.fixture
def solve_rows(monkeypatch):
    """The row count of every ``WarmStart.solve`` call, in call order."""
    real_solve = fitter.WarmStart.solve
    rows = []

    def counting_solve(warm, system):
        rows.append(system.a_ub.shape[0])
        return real_solve(warm, system)

    monkeypatch.setattr(fitter.WarmStart, "solve", counting_solve)
    return rows


@pytest.fixture
def pole_between_points(monkeypatch):
    """Every fit returns P = 1, Q = (x - 6)**2 at degree 2.  On ``coarse``
    (x = 4, 8, ..., 100) Q >= 4 at every grid point, but Q = 0 at x = 6,
    between two of them."""
    approx = RationalApproximant(BivariatePoly(2, [1, 0, 0, 0, 0, 0]),
                                 BivariatePoly(2, [36, -12, 0, 1, 0, 0]))
    monkeypatch.setattr(fitter, "_coeffs_to_approximant",
                        lambda vec, degree: approx)
    return approx
