"""Bivariate polynomials and the rational approximant form.

An approximant is  (exp(-x)/x**(m+2)) * P(m, x) / Q(m, x)  with P, Q
total-degree-n polynomials in x and m.  Polynomials hold their
coefficients, and coefficient files list them, in one dense
graded-lexicographic order (``index_pairs``: total degree ascending,
then x-power descending), so files are deterministic and diffable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from tempint.oracle import EvalPoint


class PoleError(Exception):
    """Denominator vanished or changed sign inside the working domain."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ParseError(Exception):
    """Malformed coefficient file."""


# The highest degree the fitter takes.  Above degree 4 the bracket a fit
# returns is refuted on `coarse`: at degree 5 u_plus is 61x below its own
# witness's deviation, and at degree 6 u_minus is above a degree-4
# witness's, a family degree 6 contains
MAX_DEGREE = 4


def index_pairs(degree: int) -> list[tuple[int, int]]:
    """All (i, j) with i + j <= degree in graded lexicographic order."""
    pairs = []
    for d in range(degree + 1):
        for i in range(d, -1, -1):
            pairs.append((i, d - i))
    return pairs


def _slot(i: int, j: int) -> int:
    """Position of c_ij in the ``index_pairs`` order."""
    d = i + j
    return d * (d + 1) // 2 + j


@functools.cache
def _horner_slots(degree: int) -> tuple[tuple[int, ...], ...]:
    """Slots read by ``BivariatePoly.eval``: x powers descending, each
    with its m powers descending."""
    return tuple(tuple(_slot(i, j) for j in range(degree - i, -1, -1))
                 for i in range(degree, -1, -1))


@dataclass(frozen=True)
class BivariatePoly:
    """Total-degree-n polynomial: sum of c_ij * x**i * m**j, i + j <= n.

    ``coeffs`` holds every c_ij as a float, in ``index_pairs(degree)``
    order: the layout of coefficient files and of the fitter's LP
    witness.
    """

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        coeffs = tuple(map(float, self.coeffs))
        pairs = index_pairs(self.degree)
        if len(coeffs) != len(pairs):
            raise ValueError(f"degree {self.degree} needs {len(pairs)} "
                             f"coefficients, got {len(coeffs)}")
        for (i, j), v in zip(pairs, coeffs):
            if not math.isfinite(v):
                raise ValueError(f"non-finite coefficient c_{i}{j} = {v}")
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, i: int, j: int) -> float:
        """c_ij, and 0.0 for a monomial above the degree."""
        if i < 0 or j < 0 or i + j > self.degree:
            return 0.0
        return self.coeffs[_slot(i, j)]

    def eval(self, m, x):
        """Evaluate at (m, x); accepts scalars or numpy arrays.

        Horner accumulation over x powers, with the m-polynomial of each
        x power itself evaluated by Horner.
        """
        c = self.coeffs
        acc = 0.0
        for slots in _horner_slots(self.degree):
            inner = 0.0
            for k in slots:
                inner = inner * m + c[k]
            acc = acc * x + inner
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def _bernstein_matrix(n: int, lo, hi) -> np.ndarray:
    """T[k, i], exact for ``Fraction`` bounds: the k-th degree-n Bernstein
    coefficient of t**i on [lo, hi].  With t = lo + (hi - lo) * s, t**i
    has the coefficient comb(i, p) * lo**(i - p) * (hi - lo)**p of s**p,
    and s**p the coefficient comb(k, p) / comb(n, p) of the k-th."""
    return np.array([[sum(lo ** (i - p) * (hi - lo) ** p * math.comb(k, p)
                          * math.comb(i, p) / math.comb(n, p)
                          for p in range(i + 1)) for i in range(n + 1)]
                     for k in range(n + 1)], dtype=object)


def denom_lower_bound(q: BivariatePoly, grid) -> tuple[float, bool]:
    """A lower bound on Q over the rectangle that ``grid``'s end values
    span, and whether it proves Q > 0 there.  Q is at least its least
    exact tensor Bernstein coefficient of degree (n, n) on the rectangle,
    and a vertex's coefficient is Q there (Farouki, CAGD 29 (2012)
    379-419); the bound is the float Horner value of Q at a least vertex,
    else the least coefficient as a float."""
    # imported here: fractions and decimal add ~4 ms to every start-up
    from fractions import Fraction
    n, r = q.degree, range(q.degree + 1)
    ms, xs = ((v[0], v[-1]) for v in (grid.m_values, grid.x_values))
    c = np.array([[Fraction(q.coeff(i, j)) for j in r] for i in r], object)
    # b[k, l]: k the Bernstein index in x, l the one in m
    tx, tm = (_bernstein_matrix(n, *map(Fraction, v)) for v in (xs, ms))
    b = tx @ c @ tm.T
    least = b.min()
    for (k, x), (l, m) in itertools.product(zip((0, n), xs), zip((0, n), ms)):
        if b[k, l] == least:
            return float(q.eval(m, x)), least > 0
    return float(least), least > 0


@dataclass(frozen=True)
class RationalApproximant:
    """Numerator/denominator polynomial pair of equal total degree."""

    numer: BivariatePoly
    denom: BivariatePoly

    def __post_init__(self):
        if self.numer.degree != self.denom.degree:
            raise ValueError(
                f"numerator degree {self.numer.degree} != denominator "
                f"degree {self.denom.degree}")
        if self.denom.is_zero():
            raise ValueError("denominator is identically zero")

    @property
    def degree(self) -> int:
        return self.numer.degree


def rational_eval_h_array(r: RationalApproximant, m, x):
    """P/Q at scalar or array (m, x), with pole and sign-change detection.

    ``m`` and ``x`` are floats or broadcastable float arrays covering a
    connected patch of the domain; a zero or a sign change of Q across
    the whole patch raises ``PoleError`` naming an offending point.
    """
    q = r.denom.eval(m, x)
    if isinstance(q, float):
        if not (q > 0.0 or q < 0.0):
            raise _pole_error(m, x, q)
    elif not (q.min() > 0.0 or q.max() < 0.0):
        raise _pole_error(m, x, q)
    return r.numer.eval(m, x) / q


def _pole_error(m, x, q) -> PoleError:
    """``PoleError`` at the first bad point of the first bad row of q.

    A row (the last axis) is bad if Q vanishes in it, changes sign along
    it, or has the other sign than the first row.  In that row the
    first zero is named, else the first point whose sign differs from
    the row's first point, else the row's first point.
    """
    q = np.atleast_2d(q)
    sign = np.sign(q)
    zero = q == 0.0
    flip = sign != sign[:, :1]
    row = int(np.argmax(zero.any(axis=1) | flip.any(axis=1)
                        | (sign[:, 0] != sign[0, 0])))
    k = int(np.argmax(zero[row] if zero[row].any() else flip[row]))
    mb = float(np.broadcast_to(m, q.shape)[row, k])
    xb = float(np.broadcast_to(x, q.shape)[row, k])
    return PoleError(
        f"denominator vanishes or changes sign near (m={mb}, x={xb})",
        EvalPoint(mb, xb))


def save_coeffs(r: RationalApproximant, path) -> None:
    """Write a coefficient file; ``load_coeffs`` round-trips bit-exactly."""
    lines = [f"degree {r.degree}"]
    pairs = index_pairs(r.degree)
    for tag, poly in (("a", r.numer), ("b", r.denom)):
        for (i, j), v in zip(pairs, poly.coeffs):
            lines.append(f"{tag} {i} {j} {v!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_coeff_lines(lines, source: str) -> RationalApproximant:
    it = iter(enumerate(lines, start=1))
    lineno, header = 0, None
    for lineno, raw in it:
        if raw.strip():
            header = raw.split()
            break
    if header is None or len(header) != 2 or header[0] != "degree":
        raise ParseError(f"{source}:{lineno}: expected 'degree n' header")
    try:
        degree = int(header[1])
    except ValueError:
        raise ParseError(f"{source}:{lineno}: bad degree {header[1]!r}") from None
    slots = {"a": {}, "b": {}}   # filled slots of each polynomial
    for lineno, raw in it:
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4 or fields[0] not in ("a", "b"):
            raise ParseError(
                f"{source}:{lineno}: expected 'a|b i j value', got {line!r}")
        try:
            i, j = int(fields[1]), int(fields[2])
            value = float(fields[3])
        except ValueError:
            raise ParseError(
                f"{source}:{lineno}: bad index/value in {line!r}") from None
        if i < 0 or j < 0 or i + j > degree:
            raise ParseError(
                f"{source}:{lineno}: index ({i}, {j}) exceeds degree {degree}")
        filled, k = slots[fields[0]], _slot(i, j)
        if k in filled:
            raise ParseError(
                f"{source}:{lineno}: duplicate coefficient {fields[0]}_{i}{j}")
        filled[k] = value
    expected = (degree + 1) * (degree + 2) // 2
    for tag in ("a", "b"):
        if len(slots[tag]) != expected:
            raise ParseError(
                f"{source}: expected {expected} '{tag}' coefficients for "
                f"degree {degree}, got {len(slots[tag])}")
    numer, denom = ([slots[tag][k] for k in range(expected)]
                    for tag in ("a", "b"))
    return RationalApproximant(numer=BivariatePoly(degree, numer),
                               denom=BivariatePoly(degree, denom))


def load_coeffs(path) -> RationalApproximant:
    with open(path, encoding="utf-8") as fh:
        return _parse_coeff_lines(fh.read().splitlines(), str(path))


_PAPER_CACHE: dict = {}


def paper_approximant(n: int) -> RationalApproximant:
    """The bundled degree-n approximant (n in 1..4)."""
    if n not in (1, 2, 3, 4):
        raise ValueError(f"bundled approximants have degree 1..4, got {n}")
    if n not in _PAPER_CACHE:
        text = (resources.files("tempint.data") / f"g{n}.coeff").read_text()
        _PAPER_CACHE[n] = _parse_coeff_lines(text.splitlines(), f"g{n}.coeff")
    return _PAPER_CACHE[n]
