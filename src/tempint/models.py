"""Published approximation models for the temperature integral.

Each model maps (m, x) to an approximation of g(m, x).  Constants are
exactly the published ones; no extra digits are invented.  Internally
every model computes the bounded bracket h = g * exp(x) * x**(m+2)
(the exponential-power models W2 and Ch2 in log space, since their
factors span ~90 orders of magnitude over the domain), so deviations
against the oracle stay well scaled.

Each tag is one ``ModelInfo`` record, with its h and its m-domain rule.
``model_h(model, m, x)`` is the one way to evaluate any model, at one
point, along one m row, or over a whole grid at once (m a column of
shape (M, 1) broadcast against an x row).  The model is a registry tag
or a fitted ``RationalApproximant``; the tags G1-G4 resolve to the
bundled approximants, so they and a loaded coefficient file share one
P/Q path with pole detection.  ``eval_model(model, m, x)`` turns h into
g at one point through ``oracle.g_from_h``.

J, O and SY approximate only the Arrhenius integral g(0, x).  The X
model publishes numerator coefficients only for six tabulated m values
and is never interpolated between them.  SY uses the corrected x**2
numerator coefficient 86; the widely miscopied 88 variant is available
as the explicit tag "SY88" for demonstration only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tempint.oracle import M_MAX, M_MIN, g_from_h
from tempint.rational import paper_approximant, rational_eval_h_array

_SQRT2 = math.sqrt(2.0)

X_MODEL_ROWS = {
    -1.0: (15.0, 58.0, 50.0),
    -0.5: (14.5, 51.75, 34.875),
    0.0: (14.0, 46.0, 24.0),
    0.5: (13.5, 40.75, 16.625),
    1.0: (13.0, 36.0, 12.0),
    2.0: (12.0, 28.0, 8.0),
}


class ModelDomainError(Exception):
    """Point outside the m-domain a model was published for."""

    def __init__(self, tag, m, allowed):
        super().__init__(f"model {tag} is not defined at m={m}; allowed: {allowed}")
        self.tag = tag
        self.m = m
        self.allowed = allowed


def _h_J(m, x):
    lx = np.log(x)
    return ((x * x + 16.99864 * x + 3.65517 * lx + 5.41337)
            / (x * x + 18.99977 * x + 3.43593 * lx + 38.49858))


def _h_O(m, x):
    num = ((0.9999936 * x + 7.5739391) * x + 12.4648922) * x + 3.6907232
    den = ((((x + 9.5733223) * x + 25.6329561) * x + 21.0996531) * x
           + 3.9584969)
    return num * x / den


def _h_SY(m, x, c2):
    """Senum & Yang; ``c2`` is the x**2 numerator coefficient."""
    num = (((x + 18.0) * x + c2) * x + 96.0) * x
    den = ((((x + 20.0) * x + 120.0) * x + 240.0) * x + 120.0)
    return num / den


def _h_G(m, x):
    return 1.0 / (1.0 + (m + 2.0) / x)


def _h_from_log_g(m, x, log_g):
    """h = g * exp(x) * x**(m+2) for a model given as log g."""
    return np.exp(log_g + x + (m + 2.0) * np.log(x))


def _h_W1(m, x):
    return 1.0 / (1.0 + (m + 2.0) * (0.00099441 + 0.93695599 / x))


def _h_W2(m, x):
    log_g = (-0.18887 * (m + 2.0) - (1.00145 + 0.00069 * m) * x
             - 0.94733 * (m + 2.0) * np.log(x))
    return _h_from_log_g(m, x, log_g)


def _h_C1(m, x):
    return (0.99954 * x - 0.044967 * m + 0.58058) / (x + 0.94057 * m + 2.5400)


def _h_C2(m, x):
    lx = np.log(x)
    return ((1.0002486 * x + 0.2228027 * lx - 0.05241956 * m + 0.2975711)
            / (x + 0.2333376 * lx + 0.9496628 * m + 2.2781591))


def _h_C3(m, x):
    return (x - 0.054182 * m + 0.65061) / (x + 0.93544 * m + 2.62993)


def _h_Ch1(m, x):
    num = (((x + 3.0 * (m + 2.0)) * x + (3.0 * m + 1.0) * (m + 2.0)) * x
           + m * (m - 1.0) * (m + 2.0)) * x
    den = ((((x + 4.0 * (m + 2.0)) * x + 6.0 * (m + 1.0) * (m + 2.0)) * x
            + 4.0 * m * (m + 1.0) * (m + 2.0)) * x
           + (m - 1.0) * m * (m + 1.0) * (m + 2.0))
    return num / den


def _h_Ch2(m, x):
    log_g = (-(0.16656 * m + 0.39329) - (1.00147 + 0.00057 * m) * x
             - (1.89021 + 0.95479 * m) * np.log(x))
    return _h_from_log_g(m, x, log_g)


def _h_Ch3(m, x):
    return x / ((1.00141 + 0.0006 * m) * x + (1.89376 + 0.95276 * m))


def _h_Ch4(m, x):
    return ((x + (0.74981 - 0.06396 * m))
            / ((1.00017 + 0.00013 * m) * x + (2.73166 + 0.92246 * m)))


# Exponents at which numpy computes x ** p for a scalar p by an exact
# operation (x, 1/x, 1, sqrt(x), x*x) rather than by pow
_EXACT_POWERS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def _h_Cp(m, x):
    p = m + 2.0
    hv = ((2.0 - _SQRT2) / 4.0 * (x / (x + 2.0 + _SQRT2)) ** p
          + (2.0 + _SQRT2) / 4.0 * (x / (x + 2.0 - _SQRT2)) ** p)
    if isinstance(m, np.ndarray):
        # an array p goes through pow on every row, so the rows whose
        # scalar p takes an exact path (m = -3, -2, -1.5, -1, 0) are
        # redone with it: each row keeps the bits of its scalar evaluation
        for i in np.flatnonzero(np.isin(p[:, 0], _EXACT_POWERS)):
            hv[i] = _h_Cp(float(m[i, 0]), x)
    return hv


def _h_X(m, x):
    if isinstance(m, np.ndarray):
        # one coefficient column per m row
        a3, a2, a1 = np.array(
            [X_MODEL_ROWS[_x_model_key(mi)] for mi in m[:, 0]]).T[:, :, None]
    else:
        a3, a2, a1 = X_MODEL_ROWS[_x_model_key(m)]
    num = (((x + a3) * x + a2) * x + a1) * x
    den = ((((x + 16.0) * x + 72.0) * x + 96.0) * x + 24.0)
    return num / den


def _h_Cs(m, x):
    return ((x - 0.05924479 * m + 0.62385968)
            / (x + 0.92755595 * m + 2.59746116))


def _h_L(m, x):
    s = x + m + 1.0
    return (np.sqrt(s * s + 4.0 * x) - s) / 2.0


def _x_model_key(m):
    return next((key for key in X_MODEL_ROWS if abs(m - key) < 1e-12), None)


_TABULATED = str(sorted(X_MODEL_ROWS))


@dataclass(frozen=True)
class ModelInfo:
    """A registry record: a model's h function and its m-domain rule."""

    tag: str
    citation: str
    h: Callable            # h(m, x), m a scalar or an (M, 1) column
    m_domain: str = "any"  # "any", "zero", or "tabulated"
    variant: bool = False  # demonstration-only alternates, excluded from "all"

    @property
    def univariate(self) -> bool:
        return self.m_domain == "zero"

    @property
    def label(self) -> str:
        """The m-domain as ``tempint list`` prints it."""
        return {"any": "[-4, 4]", "zero": "m = 0 only",
                "tabulated": _TABULATED}[self.m_domain]

    @property
    def allowed(self) -> str:
        """The m-domain as a ``ModelDomainError`` names it."""
        return "m = 0" if self.univariate else f"m in {self.label}"

    def admits(self, m: float) -> bool:
        if self.m_domain == "zero":
            return m == 0.0
        if self.m_domain == "tabulated":
            return _x_model_key(m) is not None
        return True

    def lines(self, m_values: tuple) -> tuple:
        """The m rows of a grid the model is evaluated on: all of them,
        but a tabulated model needs one tabulated row and skips the
        others."""
        if self.m_domain != "tabulated":
            return m_values
        if not any(map(self.admits, m_values)):
            raise ModelDomainError(self.tag, m_values[0], self.allowed)
        return tuple(filter(self.admits, m_values))

    def defined_on(self, m_values: tuple) -> bool:
        """Whether every row the model is evaluated on is admitted."""
        return (any(map(self.admits, m_values))
                and all(map(self.admits, self.lines(m_values))))


def _bundled(n: int) -> Callable:
    """h of the bundled degree-n approximant, looked up at call time."""
    return lambda m, x: rational_eval_h_array(paper_approximant(n), m, x)


_REGISTRY = {info.tag: info for info in (
    ModelInfo("J", "Ji", _h_J, "zero"),
    ModelInfo("O", "Orfao", _h_O, "zero"),
    ModelInfo("SY", "Senum & Yang (corrected)",
              functools.partial(_h_SY, c2=86.0), "zero"),
    ModelInfo("SY88", "Senum & Yang (miscopied 88 coefficient)",
              functools.partial(_h_SY, c2=88.0), "zero", variant=True),
    ModelInfo("G", "Gorbachev", _h_G),
    ModelInfo("W1", "Wanjun 2005", _h_W1),
    ModelInfo("W2", "Wanjun 2009", _h_W2),
    ModelInfo("C1", "Cai 2007a", _h_C1),
    ModelInfo("C2", "Cai 2007b", _h_C2),
    ModelInfo("C3", "Cai 2008", _h_C3),
    ModelInfo("Ch1", "Chen 2007 (4th degree)", _h_Ch1),
    ModelInfo("Ch2", "Chen 2009a", _h_Ch2),
    ModelInfo("Ch3", "Chen 2009b", _h_Ch3),
    ModelInfo("Ch4", "Chen 2009b", _h_Ch4),
    ModelInfo("Cp", "Capela", _h_Cp),
    ModelInfo("X", "Xia", _h_X, "tabulated"),
    ModelInfo("Cs", "Casal & Marban", _h_Cs),
    ModelInfo("L", "Lei", _h_L),
    *(ModelInfo(f"G{n}", f"this work, degree {n}", _bundled(n))
      for n in (1, 2, 3, 4)),
)}

ALL_TAGS = tuple(info.tag for info in _REGISTRY.values() if not info.variant)


def model_info(tag: str) -> ModelInfo:
    try:
        return _REGISTRY[tag]
    except KeyError:
        raise KeyError(
            f"unknown model tag {tag!r}; valid tags: {', '.join(ALL_TAGS)}"
        ) from None


def model_h(model, m, x):
    """The model's bracket h = g_model * exp(x) * x**(m+2).

    ``model`` is a tag or a ``RationalApproximant``.  m is a scalar, with
    x a scalar or an array, or a column of shape (M, 1), with x a row:
    the result is then the (M, len(x)) grid, bit-identical to stacking
    the rows evaluated one m at a time.  Domain and pole checks cover
    the whole grid; an error names a point of the first m row that
    fails.
    """
    if not isinstance(model, str):
        return rational_eval_h_array(model, m, x)
    info = model_info(model)
    if info.m_domain != "any":
        for mi in m[:, 0].tolist() if isinstance(m, np.ndarray) else (m,):
            if not info.admits(mi):
                raise ModelDomainError(model, mi, info.allowed)
    return info.h(m, x)


def eval_model(model, m: float, x: float) -> float:
    """The model's approximation to g(m, x) at one point; the segment
    helper ``harness.vyazovkin_segment`` evaluates its ends by it."""
    return g_from_h(m, x, model_h(model, m, x))


def list_models(m_filter: float | None = None) -> list[ModelInfo]:
    """Registry entries, optionally restricted to models defined at m.

    No model is defined at an m outside the oracle's working domain, and
    a non-finite m is an error.
    """
    if m_filter is not None and not math.isfinite(m_filter):
        raise ValueError(f"non-finite m={m_filter}")
    return [info for info in _REGISTRY.values() if not info.variant
            and (m_filter is None or (M_MIN <= m_filter <= M_MAX
                                      and info.admits(m_filter)))]
