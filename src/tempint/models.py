"""Published approximation models for the temperature integral.

Each model maps (m, x) to an approximation of g(m, x).  Constants are
exactly the published ones; no extra digits are invented.  Internally
every model computes the bounded bracket h = g * exp(x) * x**(m+2)
(the exponential-power models W2 and Ch2 in log space, since their
factors span ~90 orders of magnitude over the domain), so deviations
against the oracle stay well scaled.

``model_h(model, m, x)`` is the one way to evaluate any model, at one
point, along one m row, or over a whole grid at once (m a column of
shape (M, 1) broadcast against an x row).  The model is a registry tag
or a fitted ``RationalApproximant``; the tags G1-G4 resolve to the
bundled approximants, so they and a loaded coefficient file share one
P/Q path with pole detection.  ``eval_model`` turns h into g through
``oracle.g_from_h``.

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

import numpy as np

from tempint.oracle import EvalPoint, g_from_h
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


def _h_Cp(m, x):
    if isinstance(m, np.ndarray):
        # row by row: for a scalar p, x ** p takes numpy's exact fast
        # paths (reciprocal at p = -1, sqrt at p = 0.5), an array p not
        return np.vstack([_h_Cp(float(mi), x) for mi in m[:, 0]])
    p = m + 2.0
    return ((2.0 - _SQRT2) / 4.0 * (x / (x + 2.0 + _SQRT2)) ** p
            + (2.0 + _SQRT2) / 4.0 * (x / (x + 2.0 - _SQRT2)) ** p)


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
    for key in X_MODEL_ROWS:
        if abs(m - key) < 1e-12:
            return key
    return None


@dataclass(frozen=True)
class ModelInfo:
    tag: str
    citation: str
    m_domain: str          # "any", "zero", or "tabulated"
    univariate: bool
    variant: bool = False  # demonstration-only alternates, excluded from "all"


_REGISTRY = {
    "J": ModelInfo("J", "Ji", "zero", True),
    "O": ModelInfo("O", "Orfao", "zero", True),
    "SY": ModelInfo("SY", "Senum & Yang (corrected)", "zero", True),
    "SY88": ModelInfo("SY88", "Senum & Yang (miscopied 88 coefficient)",
                      "zero", True, variant=True),
    "G": ModelInfo("G", "Gorbachev", "any", False),
    "W1": ModelInfo("W1", "Wanjun 2005", "any", False),
    "W2": ModelInfo("W2", "Wanjun 2009", "any", False),
    "C1": ModelInfo("C1", "Cai 2007a", "any", False),
    "C2": ModelInfo("C2", "Cai 2007b", "any", False),
    "C3": ModelInfo("C3", "Cai 2008", "any", False),
    "Ch1": ModelInfo("Ch1", "Chen 2007 (4th degree)", "any", False),
    "Ch2": ModelInfo("Ch2", "Chen 2009a", "any", False),
    "Ch3": ModelInfo("Ch3", "Chen 2009b", "any", False),
    "Ch4": ModelInfo("Ch4", "Chen 2009b", "any", False),
    "Cp": ModelInfo("Cp", "Capela", "any", False),
    "X": ModelInfo("X", "Xia", "tabulated", False),
    "Cs": ModelInfo("Cs", "Casal & Marban", "any", False),
    "L": ModelInfo("L", "Lei", "any", False),
    "G1": ModelInfo("G1", "this work, degree 1", "any", False),
    "G2": ModelInfo("G2", "this work, degree 2", "any", False),
    "G3": ModelInfo("G3", "this work, degree 3", "any", False),
    "G4": ModelInfo("G4", "this work, degree 4", "any", False),
}

_H_FUNCS = {
    "J": _h_J, "O": _h_O, "SY": functools.partial(_h_SY, c2=86.0),
    "SY88": functools.partial(_h_SY, c2=88.0),
    "G": _h_G, "W1": _h_W1, "W2": _h_W2,
    "C1": _h_C1, "C2": _h_C2, "C3": _h_C3,
    "Ch1": _h_Ch1, "Ch2": _h_Ch2, "Ch3": _h_Ch3, "Ch4": _h_Ch4,
    "Cp": _h_Cp, "X": _h_X, "Cs": _h_Cs, "L": _h_L,
}

ALL_TAGS = tuple(info.tag for info in _REGISTRY.values() if not info.variant)


def model_info(tag: str) -> ModelInfo:
    try:
        return _REGISTRY[tag]
    except KeyError:
        raise KeyError(
            f"unknown model tag {tag!r}; valid tags: {', '.join(ALL_TAGS)}"
        ) from None


def admits_m(tag: str, m: float) -> bool:
    info = model_info(tag)
    if info.m_domain == "zero":
        return m == 0.0
    if info.m_domain == "tabulated":
        return _x_model_key(m) is not None
    return True


def _check_domain(tag: str, m) -> None:
    """Raise ``ModelDomainError`` for the first m the model does not admit."""
    if isinstance(m, np.ndarray):
        if model_info(tag).m_domain != "any":
            for mi in m[:, 0].tolist():
                _check_domain(tag, mi)
    elif not admits_m(tag, m):
        info = model_info(tag)
        allowed = ("m = 0" if info.m_domain == "zero"
                   else f"m in {sorted(X_MODEL_ROWS)}")
        raise ModelDomainError(tag, m, allowed)


def model_h(model, m, x):
    """The model's bracket h = g_model * exp(x) * x**(m+2).

    ``model`` is a tag or a ``RationalApproximant``.  m is a scalar, with
    x a scalar or an array, or a column of shape (M, 1), with x a row:
    the result is then the (M, len(x)) grid, bit-identical to stacking
    the rows evaluated one m at a time.  Domain and pole checks cover
    the whole grid; an error names a point of the first m row that
    fails.
    """
    if isinstance(model, str):
        _check_domain(model, m)
        if model in _H_FUNCS:
            return _H_FUNCS[model](m, x)
        model = paper_approximant(int(model[1]))
    return rational_eval_h_array(model, m, x)


def eval_model(model, point: EvalPoint) -> float:
    """The model's approximation to g(m, x)."""
    return g_from_h(point.m, point.x, model_h(model, point.m, point.x))


def list_models(m_filter: float | None = None) -> list[ModelInfo]:
    """Registry entries, optionally restricted to models defined at m."""
    out = []
    for info in _REGISTRY.values():
        if info.variant:
            continue
        if m_filter is not None and not admits_m(info.tag, m_filter):
            continue
        out.append(info)
    return out
