"""High-precision evaluation of the general temperature integral.

Two independent algorithms provide ground truth:

* ``g_cf`` -- modified Lentz continued fraction for the upper incomplete
  gamma function Gamma(-(m+1), x), which equals g(m, x).
* ``g_quad`` -- adaptive Gauss-Kronrod quadrature of the integrand after
  the substitution t = x + u, which removes the exp(-x) * x**-(m+2)
  scale from the numerical problem.

Both are expected to agree to ~10x ``REL_TOL`` across the working domain
m in [-4, 4], x in [4, 100]; the agreement is asserted by the test suite.
``h_array`` evaluates the bounded companion
h(m, x) = exp(x) * x**(m+2) * g(m, x), the quantity the rational
approximants actually target, over whole arrays; ``h`` is its one-point
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

M_MIN, M_MAX = -4.0, 4.0
X_MIN, X_MAX = 4.0, 100.0

_TINY = 1e-300
# Must stay ~6 orders tighter than the best approximant it judges.
REL_TOL = 1e-13
MAX_ITERATIONS = 10_000


class OracleError(Exception):
    """Base class for oracle failures."""


class DomainError(OracleError):
    """Point outside the working domain m in [-4, 4], x in [4, 100]."""


class ConvergenceError(OracleError):
    """Iteration cap hit before reaching the requested tolerance.

    Carries the last two iterates so the caller can judge how far the
    computation was from convergence.
    """

    def __init__(self, message, last_iterates):
        super().__init__(f"{message} (last iterates: {last_iterates[0]!r}, "
                         f"{last_iterates[1]!r})")
        self.last_iterates = last_iterates


@dataclass(frozen=True)
class EvalPoint:
    """A (m, x) coordinate, x = E/RT the reduced activation energy."""

    m: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.x)):
            raise DomainError(f"non-finite point (m={self.m}, x={self.x})")
        if self.x <= 0.0:
            raise DomainError(f"x must be positive, got x={self.x}")


def _require_working_domain(point: EvalPoint) -> None:
    if not (M_MIN <= point.m <= M_MAX and X_MIN <= point.x <= X_MAX):
        raise DomainError(
            f"(m={point.m}, x={point.x}) outside working domain "
            f"m in [{M_MIN}, {M_MAX}], x in [{X_MIN}, {X_MAX}]")


def require_in_domain(m, x) -> None:
    """Raise ``DomainError`` for the first point, in C order, of the
    broadcast of the float arrays ``m`` and ``x`` outside the working
    domain."""
    inside = (M_MIN <= m) & (m <= M_MAX) & (X_MIN <= x) & (x <= X_MAX)
    if not inside.all():
        k = np.unravel_index(int(np.argmin(inside)), inside.shape)
        m, x = np.broadcast_arrays(m, x)
        _require_working_domain(EvalPoint(float(m[k]), float(x[k])))


def _lentz_cf(a: float, x: float, start: int = 0) -> float:
    """Continued fraction F with Gamma(a, x) = exp(-x) * x**a * F.

    Modified Lentz iteration; valid for x > 0 and the real parameters
    a = -(m+1) in [-5, 3] arising in the working domain.  With ``start``
    = k > 0 it returns 1 / T_k instead, T_k = b_k + a_(k+1) / (b_(k+1) + ...)
    the tail of the fraction below its k-th level.
    """
    b = x + 1.0 - a + 2.0 * start
    c = 1.0 / _TINY
    d = 1.0 / b
    f = d
    prev = f
    for i in range(start + 1, start + MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        prev = f
        f *= delta
        if abs(delta - 1.0) < REL_TOL:
            return f
    raise ConvergenceError(
        f"continued fraction for Gamma({a}, {x}) did not converge "
        f"within {MAX_ITERATIONS} iterations", (prev, f))


# Levels of the fraction that g_cf evaluates backward.  A relative error in
# the tail below them reaches F times 0.0145 at most on the working domain
# (the largest factor is at m = -4, x = 4).
_BACKWARD_LEVELS = 2


def g_cf(point: EvalPoint) -> float:
    """g(m, x) via the continued fraction for Gamma(-(m+1), x).

    Lentz evaluates the tail below the top ``_BACKWARD_LEVELS`` levels,
    which are then evaluated backward from it: F comes out within about an
    ulp, where the forward Lentz product alone carries several ulps of
    rounding noise.  With exp(-x) and x**a as separate factors rather than
    exp(-x + a*log(x)), g is within 1e-15 relative and stays strictly
    decreasing between adjacent floats of x, whose true values are 2.5
    ulps of g or more apart.
    """
    _require_working_domain(point)
    a, x = -(point.m + 1.0), point.x
    t = 1.0 / _lentz_cf(a, x, start=_BACKWARD_LEVELS)
    b0 = x + 1.0 - a
    for i in range(_BACKWARD_LEVELS, 0, -1):
        t = (b0 + 2.0 * (i - 1)) - i * (i - a) / t
    return math.exp(-x) * x ** a / t


def _lentz_cf_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_lentz_cf`` elementwise over 1-D arrays.

    Each lane runs exactly the scalar operations and leaves the iteration
    once it converges, so its value is bit-identical to ``_lentz_cf``.
    Raises ``ConvergenceError``, as ``_lentz_cf`` does, for the first lane
    in C order that is still open after ``MAX_ITERATIONS``.
    """
    out = np.empty_like(x)
    lanes = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    f = d.copy()
    for i in range(1, MAX_ITERATIONS + 1):
        if not lanes.size:
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        f = f * delta
        done = np.abs(delta - 1.0) < REL_TOL
        if done.any():
            out[lanes[done]] = f[done]
            keep = ~done
            lanes, a, b, c, d, f = (v[keep] for v in (lanes, a, b, c, d, f))
    if lanes.size:
        # the first open lane again as a scalar: the same operations
        # raise ConvergenceError with its last two iterates
        _lentz_cf(float(a[0]), float(x[lanes[0]]))
    return out


def _h_quad(point: EvalPoint) -> float:
    """h(m, x) = int_0^inf exp(-u) (1 + u/x)**-(m+2) du by quadrature."""
    # imported on first use: only g_quad, the independent cross-check,
    # integrates, and scipy.integrate is most of the import time
    from scipy.integrate import quad

    m, x = point.m, point.x
    p = m + 2.0
    upper = 60.0 + 5.0 * abs(p) * math.log(x)

    def integrand(u):
        return math.exp(-u - p * math.log1p(u / x))

    out = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=REL_TOL,
               limit=200, full_output=True)
    val, abserr = out[0], out[1]
    if len(out) > 3:
        raise OracleError(
            f"quadrature failed at (m={m}, x={x}): {out[3]}")
    # Truncation tail bound: integrand <= exp(-u) * (1 + upper/x)^max(0,-p).
    tail = math.exp(-upper) * (1.0 + upper / x) ** max(0.0, -p)
    if tail > REL_TOL * val:
        raise OracleError(
            f"truncation bound {tail:g} exceeds tolerance at (m={m}, x={x})")
    if abserr > 10.0 * REL_TOL * val:
        raise OracleError(
            f"quadrature error estimate {abserr:g} too large at (m={m}, x={x})")
    return val


def g_from_h(m: float, x: float, hval: float) -> float:
    """g(m, x) from the bracket h: exp(-x) * x**-(m+2) * h.

    ``g_quad`` and every model go through here.  The prefactor's two
    factors stay separate, as in ``g_cf``: folded into
    exp(-x - (m+2) log x) it would carry tens of ulps of rounding.
    """
    return math.exp(-x) * x ** -(m + 2.0) * float(hval)


def g_quad(point: EvalPoint) -> float:
    """g(m, x) by adaptive quadrature, independent of ``g_cf``."""
    _require_working_domain(point)
    return g_from_h(point.m, point.x, _h_quad(point))


def h(point: EvalPoint) -> float:
    """Scaled target h(m, x) = exp(x) * x**(m+2) * g(m, x) at one point.

    h(-2, x) = 1 exactly; h -> 1 as x -> infinity for fixed m.  The
    one-point case of ``h_array``, as a Python float.
    """
    return float(h_array(point.m, point.x))


def h_array(m, x) -> np.ndarray:
    """h elementwise over the broadcast of the arrays ``m`` and ``x``.

    h = exp(x) x^(m+2) g = x * F with the Lentz fraction F of
    ``_lentz_cf``; each lane runs exactly its scalar operations.  Raises
    ``DomainError`` for the first point, in C order, outside the working
    domain, and ``ConvergenceError`` for the first whose continued
    fraction does not converge (on the working domain each converges
    within 23 iterations).
    """
    shape = np.broadcast_shapes(np.shape(m), np.shape(x))
    m = np.broadcast_to(np.asarray(m, dtype=float), shape).ravel()
    x = np.broadcast_to(np.asarray(x, dtype=float), shape).ravel()
    require_in_domain(m, x)
    return (x * _lentz_cf_array(-(m + 1.0), x)).reshape(shape)


def h_series(point: EvalPoint, terms: int) -> float:
    """Partial sum of the asymptotic series for h(m, x).

    1 - (m+2)/x + (m+2)(m+3)/x^2 - ... truncated to ``terms`` terms.
    A large-x sanity bracket only, never ground truth: consecutive
    partial sums bracket h once the term ratio (m+2+k)/x drops below 1.

    The sum returns early once a term is exactly 0.0, since every later
    term is 0.0 too: the series ends at m = -2, -3 or -4.  A partial sum
    that is not finite raises ``ValueError``.  On the working domain one
    of the two happens within about 750 terms, whatever ``terms`` is;
    a point outside it raises ``DomainError``.
    """
    _require_working_domain(point)
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    total = 1.0
    term = 1.0
    for k in range(1, terms):
        term *= -(point.m + 1.0 + k) / point.x
        if term == 0.0:
            break
        total += term
        if not math.isfinite(total):
            raise ValueError(
                f"series partial sum at (m={point.m}, x={point.x}) is not "
                f"finite after {k + 1} terms: the series diverges there")
    return total
