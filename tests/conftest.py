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
    path: the LP of a ``FeasibilitySystem``, min t subject to its rows
    and t >= -1, solved cold by scipy's ``linprog`` at the tight
    tolerances and, if that fails, at the defaults.  True if the system
    is feasible."""
    def verdict(system):
        a_ub = np.hstack([system.a_ub, -np.ones((len(system.b_ub), 1))])
        a_eq = np.hstack([system.a_eq, [[0.0]]])
        cost = np.eye(a_ub.shape[1])[-1]
        bounds = [(None, None)] * system.n_coeffs + [(-1.0, None)]
        for options in (fitter.TIGHT_OPTIONS, None):
            res = linprog(cost, A_ub=a_ub, b_ub=system.b_ub, A_eq=a_eq,
                          b_eq=[0.0], bounds=bounds, method="highs",
                          options=options)
            if res.status == 0:
                return res.fun <= fitter.FEASIBILITY_TOL
        raise AssertionError(f"cold solve failed: {res.message}")
    return verdict


@pytest.fixture(autouse=True)
def sound_lower_ends(monkeypatch):
    """Every fit the suite runs keeps its lower end at or below the
    deviation of the coefficients it writes."""
    class CheckedFitResult(fitter.FitResult):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            assert self.u_minus <= self.achieved_dev, (
                f"u_minus {self.u_minus!r} above achieved_dev "
                f"{self.achieved_dev!r} on {self.grid.spec}")

    monkeypatch.setattr(fitter, "FitResult", CheckedFitResult)


@pytest.fixture
def solve_rows(monkeypatch):
    """The row count of every ``WarmStart.solve`` call, in call order:
    the deviation rows and the normalization row."""
    real_solve = fitter.WarmStart.solve
    rows = []

    def counting_solve(warm, system):
        rows.append(len(system.a_ub) + len(system.a_eq))
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
