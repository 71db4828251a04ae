"""Minimax rational approximation of the general temperature integral.

g(m, x) = integral from x to infinity of exp(-t) * t**-(m+2) dt, the
temperature integral of non-isothermal kinetics with a power-law
frequency factor.  The package provides a high-precision oracle for
g and its bounded companion h(m, x) = exp(x) * x**(m+2) * g(m, x),
bivariate rational approximants fitted to the least maximal deviation
by differential correction, one LP per step, reference implementations
of published approximation models, and an evaluation harness.
"""

from tempint.oracle import (
    ConvergenceError,
    DomainError,
    EvalPoint,
    OracleError,
    g_cf,
    g_quad,
    h,
    h_series,
)
from tempint.rational import (
    BivariatePoly,
    ParseError,
    PoleError,
    RationalApproximant,
    load_coeffs,
    paper_approximant,
    save_coeffs,
)

__all__ = [
    "BivariatePoly",
    "ConvergenceError",
    "DomainError",
    "EvalPoint",
    "OracleError",
    "ParseError",
    "PoleError",
    "RationalApproximant",
    "g_cf",
    "g_quad",
    "h",
    "h_series",
    "load_coeffs",
    "paper_approximant",
    "save_coeffs",
]

__version__ = "1.0.0"
