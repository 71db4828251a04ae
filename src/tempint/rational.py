"""Bivariate polynomials and the rational approximant form.

An approximant is  (exp(-x)/x**(m+2)) * P(m, x) / Q(m, x)  with P, Q
total-degree-n polynomials in x and m.  Coefficient files use a dense
graded-lexicographic layout (total degree ascending, then x-power
descending) so files are deterministic and diffable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from tempint.oracle import EvalPoint, g_from_h


class PoleError(Exception):
    """Denominator vanished or changed sign inside the working domain."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ParseError(Exception):
    """Malformed coefficient file."""


def index_pairs(degree: int) -> list[tuple[int, int]]:
    """All (i, j) with i + j <= degree in graded lexicographic order."""
    pairs = []
    for d in range(degree + 1):
        for i in range(d, -1, -1):
            pairs.append((i, d - i))
    return pairs


@dataclass(frozen=True)
class BivariatePoly:
    """Total-degree-n polynomial: sum of c_ij * x**i * m**j, i + j <= n."""

    degree: int
    coeffs: dict

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        for (i, j), v in self.coeffs.items():
            if i < 0 or j < 0 or i + j > self.degree:
                raise ValueError(
                    f"index pair ({i}, {j}) invalid for degree {self.degree}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite coefficient c_{i}{j} = {v}")

    def coeff(self, i: int, j: int) -> float:
        return self.coeffs.get((i, j), 0.0)

    def eval(self, m, x):
        """Evaluate at (m, x); accepts scalars or numpy arrays.

        Horner accumulation over x powers, with the m-polynomial of each
        x power itself evaluated by Horner.
        """
        n = self.degree
        acc = 0.0
        for i in range(n, -1, -1):
            inner = 0.0
            for j in range(n - i, -1, -1):
                inner = inner * m + self.coeffs.get((i, j), 0.0)
            acc = acc * x + inner
        return acc

    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.coeffs.values())


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


def poly_eval(p: BivariatePoly, point: EvalPoint):
    return p.eval(point.m, point.x)


def rational_eval_h(r: RationalApproximant, point: EvalPoint) -> float:
    """The inner ratio P/Q, the approximation to h(m, x)."""
    return rational_eval_h_array(r, point.m, point.x)


def rational_eval_h_array(r: RationalApproximant, m, x):
    """P/Q at scalar or array (m, x), with pole and sign-change detection.

    ``m`` and ``x`` are floats or broadcastable float arrays covering a
    connected patch of the domain; a zero or a sign change of Q across
    the patch raises ``PoleError`` naming an offending point.
    """
    q = r.denom.eval(m, x)
    if isinstance(q, float):
        if not (q > 0.0 or q < 0.0):
            raise _pole_error(m, x, q)
    elif not (q.min() > 0.0 or q.max() < 0.0):
        raise _pole_error(m, x, q)
    return r.numer.eval(m, x) / q


def _pole_error(m, x, q) -> PoleError:
    q = np.asarray(q)
    bad = q == 0.0
    if not bad.any():
        bad = np.sign(q) != np.sign(q.flat[0])
    k = int(np.argmax(np.ravel(bad)))
    mb = float(np.broadcast_to(m, q.shape).flat[k])
    xb = float(np.broadcast_to(x, q.shape).flat[k])
    return PoleError(
        f"denominator vanishes or changes sign near (m={mb}, x={xb})",
        EvalPoint(mb, xb))


def approximant_eval_g(r: RationalApproximant, point: EvalPoint) -> float:
    """(exp(-x)/x**(m+2)) * P/Q; prefactor computed in log space."""
    return g_from_h(point.m, point.x, rational_eval_h(r, point))


def save_coeffs(r: RationalApproximant, path) -> None:
    """Write a coefficient file; ``load_coeffs`` round-trips bit-exactly."""
    lines = [f"degree {r.degree}"]
    pairs = index_pairs(r.degree)
    for tag, poly in (("a", r.numer), ("b", r.denom)):
        for i, j in pairs:
            lines.append(f"{tag} {i} {j} {poly.coeff(i, j)!r}")
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
    coeffs = {"a": {}, "b": {}}
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
        if (i, j) in coeffs[fields[0]]:
            raise ParseError(
                f"{source}:{lineno}: duplicate coefficient {fields[0]}_{i}{j}")
        coeffs[fields[0]][(i, j)] = value
    expected = (degree + 1) * (degree + 2) // 2
    for tag in ("a", "b"):
        if len(coeffs[tag]) != expected:
            raise ParseError(
                f"{source}: expected {expected} '{tag}' coefficients for "
                f"degree {degree}, got {len(coeffs[tag])}")
    return RationalApproximant(
        numer=BivariatePoly(degree, coeffs["a"]),
        denom=BivariatePoly(degree, coeffs["b"]))


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
