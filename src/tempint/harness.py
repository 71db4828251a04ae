"""Deviation reports, model comparisons and the segment-integral helper.

The accuracy metric is the signed relative deviation
eps = g_model / g_oracle - 1, aggregated as max |eps| and SSE (the
unnormalized sum of squared deviations) over a grid.  Grids are
endpoint-inclusive; the named presets reproduce the published point
counts exactly (81 x 97, 41 x 97, 1 x 97).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from tempint import models
from tempint.oracle import (X_MAX, X_MIN, DomainError, EvalPoint, g_cf,
                            g_from_h, h, h_array, require_in_domain)
# bound for perfbench/layers.py, which wraps harness.rational_eval_h_array
from tempint.rational import rational_eval_h_array

GRID_PRESETS = {
    "paper-eval": "m=-4:4:0.1,x=4:100:1",
    "paper-narrow": "m=-1.5:2.5:0.1,x=4:100:1",
    "arrhenius": "m=0:0:1,x=4:100:1",
    "coarse": "m=-4:4:0.5,x=4:100:4",
}
# Points allowed on one axis and on a whole grid spec: 8 MB per float
# array of one evaluation over the grid
MAX_GRID_POINTS = 1_000_000


def _axis_values(lo: float, hi: float, step: float) -> tuple[float, ...]:
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"non-finite grid range {lo}:{hi}:{step}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    count = (hi - lo) / step + 1.0
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid range {lo}:{hi}:{step} has {count:.3g} "
                         f"points, above the limit of {MAX_GRID_POINTS}")
    values = []
    # at most round(count) values: a step too small to move lo + k * step
    # past the tolerance below would otherwise never end the loop
    for k in range(round(count)):
        v = lo + k * step
        if v > hi + 1e-9 * max(1.0, abs(hi)):
            break
        v = round(v, 12)
        # a repeated value would be evaluated and printed again, and make
        # ``restrict``'s lookup of rows by value ambiguous
        if values and v == values[-1]:
            raise ValueError(f"grid range {lo}:{hi}:{step} repeats the "
                             f"value {v!r}: grid values are rounded to 12 "
                             "decimals")
        values.append(v)
    return tuple(values)


@dataclass(frozen=True)
class EvalGrid:
    """Cartesian (m, x) evaluation grid, both endpoints inclusive, inside
    the working domain: construction raises the oracle's ``DomainError``
    for the first point, in C order, outside it."""

    m_values: tuple
    x_values: tuple
    spec: str = ""

    def __post_init__(self):
        require_in_domain(np.array(self.m_values, dtype=float)[:, None],
                          np.array(self.x_values, dtype=float))

    @classmethod
    def from_spec(cls, spec: str) -> "EvalGrid":
        """Parse ``m=<lo>:<hi>:<step>,x=<lo>:<hi>:<step>`` or a preset name."""
        axes = {}
        for part in GRID_PRESETS.get(spec, spec).split(","):
            name, _, rng = part.partition("=")
            name = name.strip()
            if name not in ("m", "x") or name in axes:
                raise ValueError(f"bad grid spec {spec!r}")
            try:
                lo, hi, step = (float(tok) for tok in rng.split(":"))
            except ValueError:
                raise ValueError(f"bad grid range {part!r}") from None
            axes[name] = _axis_values(lo, hi, step)
        if set(axes) != {"m", "x"}:
            raise ValueError(f"grid spec {spec!r} must define both m and x")
        size = len(axes["m"]) * len(axes["x"])
        if size > MAX_GRID_POINTS:
            raise ValueError(f"grid spec {spec!r} has {size} points, "
                             f"above the limit of {MAX_GRID_POINTS}")
        return cls(axes["m"], axes["x"], spec)

    @property
    def size(self) -> int:
        return len(self.m_values) * len(self.x_values)


def oracle_h(point: EvalPoint) -> float:
    """Oracle h at one point, uncached; only perfbench/layers.py reads it."""
    return h(point)


@functools.lru_cache(maxsize=8)
def oracle_h_row(m_values: tuple, x_values: tuple) -> np.ndarray:
    """Oracle h on the grid m_values x x_values, one row per m value.

    Memoized per grid: one ``tempint tables`` run touches three grids
    (paper-eval, the m = 0 line and X's tabulated lines of paper-narrow)
    and one ``compare`` reuses one grid for every model.  The array is
    shared between callers, so it is read-only.
    """
    hv = h_array(np.array(m_values)[:, None], np.array(x_values))
    hv.flags.writeable = False
    return hv


@dataclass
class DeviationReport:
    model: str
    grid: EvalGrid
    m_lines: tuple             # m values actually evaluated
    eps: np.ndarray            # shape (len(m_lines), len(grid.x_values))
    eps_max_abs: float
    sse: float
    argmax_point: EvalPoint
    footnote: str = ""


def report(model, grid: EvalGrid) -> DeviationReport:
    """Full per-point sweep with aggregates.

    Models must cover the whole grid; points outside a model's m-domain
    are a hard error rather than silently skipped.  The X model is the
    published exception: it is evaluated over the rows its record's
    ``lines`` keeps, and the report carries a footnote saying so.
    """
    if isinstance(model, str):
        label, m_lines = model, models.model_info(model).lines(grid.m_values)
    else:
        label, m_lines = f"fit-n{model.degree}", grid.m_values
    footnote = ("" if m_lines == grid.m_values else
                f"evaluated over tabulated m lines {list(m_lines)} only")
    eps = (models.model_h(model, np.array(m_lines)[:, None],
                          np.array(grid.x_values, dtype=float))
           / oracle_h_row(m_lines, grid.x_values) - 1.0)
    return _aggregate(label, grid, m_lines, eps, footnote)


def restrict(rep: DeviationReport, grid: EvalGrid) -> DeviationReport:
    """``rep`` cut down to the rows of ``grid``, with nothing evaluated.

    Equal field by field to ``report`` of the same model on ``grid``:
    ``models.model_h`` and ``h_array`` give each m row the bits they give
    it on any grid, and the chosen rows, C-contiguous like a fresh
    evaluation, aggregate in the order it does.  ``grid`` must have the
    report's x axis, and its m values must be a run of consecutive rows
    of the report.  The cut's ``eps`` is a view of ``rep.eps``, not a
    copy; nothing writes a report's ``eps``.
    """
    if grid.x_values != rep.grid.x_values:
        raise ValueError(f"grid {grid.spec!r} and the {rep.model} report's "
                         f"grid {rep.grid.spec!r} differ in x")
    m_values = grid.m_values
    first = (rep.m_lines.index(m_values[0]) if m_values[0] in rep.m_lines
             else 0)   # the comparison below fails at the first value
    rows = slice(first, first + len(m_values))
    if rep.m_lines[rows] != m_values:
        raise ValueError(f"the m values of grid {grid.spec!r} are not a run "
                         f"of consecutive rows of the {rep.model} report on "
                         f"{rep.grid.spec!r}")
    return _aggregate(rep.model, grid, m_values, rep.eps[rows])


def _aggregate(label, grid, m_lines, eps, footnote="") -> DeviationReport:
    """The report of ``eps`` on rows ``m_lines`` of ``grid``: max |eps|,
    the point where it occurs and the SSE."""
    abs_eps = np.abs(eps)
    flat = int(np.argmax(abs_eps))
    i, k = divmod(flat, len(grid.x_values))
    return DeviationReport(
        model=label, grid=grid, m_lines=m_lines, eps=eps,
        eps_max_abs=float(abs_eps.flat[flat]), sse=float((eps * eps).sum()),
        argmax_point=EvalPoint(m_lines[i], grid.x_values[k]),
        footnote=footnote)


def resolve_model_list(spec: str, grid: EvalGrid) -> list[str]:
    """Expand a comma-separated model list; ``all`` means every model
    defined on the grid.  A tag listed twice raises ``ValueError``."""
    if spec == "all":
        return [info.tag for info in models.list_models()
                if info.defined_on(grid.m_values)]
    tags = [t.strip() for t in spec.split(",") if t.strip()]
    for k, tag in enumerate(tags):
        if tag in tags[:k]:
            raise ValueError(f"model {tag!r} is listed twice")
    return tags


def compare(model_list, grid: EvalGrid) -> list[DeviationReport]:
    """One report per model, sorted by max |eps| ascending."""
    if not model_list:
        raise ValueError("empty model list")
    reports = [report(m, grid) for m in model_list]
    reports.sort(key=lambda r: r.eps_max_abs)
    return reports


def render_comparison_text(reports) -> str:
    out = io.StringIO()
    out.write(f"{'model':<10} {'points':>7} {'SSE':>10} {'|eps|max':>10} "
              f"{'at (m, x)':>16}\n")
    for r in reports:
        npts = len(r.m_lines) * len(r.grid.x_values)
        mark = " *" if r.footnote else ""
        out.write(f"{r.model:<10} {npts:>7} {r.sse:>10.2E} "
                  f"{r.eps_max_abs:>10.2E} "
                  f"({r.argmax_point.m:g}, {r.argmax_point.x:g}){mark}\n")
    for r in reports:
        if r.footnote:
            out.write(f"* {r.model}: {r.footnote}\n")
    return out.getvalue()


def render_comparison_csv(reports) -> str:
    # a custom grid spec holds a comma, so fields are quoted where needed
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model", "grid", "points", "sse", "eps_max", "arg_m",
                     "arg_x"])
    for r in reports:
        npts = len(r.m_lines) * len(r.grid.x_values)
        writer.writerow([r.model, r.grid.spec, npts, repr(r.sse),
                         repr(r.eps_max_abs), repr(r.argmax_point.m),
                         repr(r.argmax_point.x)])
    return out.getvalue()


def render_per_point_csv(report_obj: DeviationReport) -> str:
    """The per-point CSV, model,m,x,g_oracle,g_model,eps: g_oracle is
    ``g_from_h`` of the cached oracle h that eps divided by.  Each array
    is read once as Python floats, and each m and x formatted once."""
    x_values = report_obj.grid.x_values
    x_cells = [f"{x!r}," for x in x_values]
    h_rows = oracle_h_row(report_obj.m_lines, x_values).tolist()
    lines = ["model,m,x,g_oracle,g_model,eps"]
    for m, h_row, eps_row in zip(report_obj.m_lines, h_rows,
                                 report_obj.eps.tolist()):
        head = f"{report_obj.model},{m!r},"
        for x, x_cell, hv, eps in zip(x_values, x_cells, h_row, eps_row):
            g_o = g_from_h(m, x, hv)
            lines.append(f"{head}{x_cell}{g_o!r},{g_o * (1.0 + eps)!r},"
                         f"{eps!r}")
    return "\n".join(lines) + "\n"


# the last segment end evaluated, (model, x, g(0, x)): one entry
_last_end = (None, math.nan, math.nan)


def _g_end(model, x: float) -> float:
    """g(0, x) by ``model``, "oracle" or a model, for one segment end.

    Consecutive segments of a walk share an end, so the last end
    evaluated is memoized.  The memo holds one entry and has no setting.
    A hit needs the same float x and the same model object (an equal
    object that is another instance misses), and returns the float the
    evaluation would give, with one exception: the tags G1-G4 resolve
    through ``rational.paper_approximant`` when evaluated, so code that
    swaps ``rational._PAPER_CACHE`` between two calls at one x sees the
    old value.  Nothing is stored when the evaluation raises.
    """
    global _last_end
    last_model, last_x, last_g = _last_end
    if x == last_x and model is last_model:
        return last_g
    if model == "oracle":
        g = g_cf(EvalPoint(0.0, x))
    else:
        g = models.eval_model(model, 0.0, x)
    # one assignment, so another thread never reads a mixed entry
    _last_end = (model, x, g)
    return g


def vyazovkin_segment(e_over_r: float, t_lo: float, t_hi: float,
                      model="oracle") -> float:
    """Segment integral (E/R) * [g(0, E/(R*T_hi)) - g(0, E/(R*T_lo))].

    Equals the integral of exp(-E/(R*T)) dT over [t_lo, t_hi].  The
    ``model`` argument selects how g(0, .) is evaluated: "oracle" or any
    model tag / fitted approximant.  A zero-width segment is checked like
    any other and gives 0.0 exactly.  The lower end is evaluated first:
    on a walk it is the upper end of the previous segment, which
    ``_g_end`` has just evaluated, so each temperature of a walk is
    evaluated once.
    """
    if not 0.0 < t_lo <= t_hi:
        raise DomainError(f"need 0 < T_lo <= T_hi, got [{t_lo}, {t_hi}]")
    x_at_hi = e_over_r / t_hi
    x_at_lo = e_over_r / t_lo
    for xv in (x_at_hi, x_at_lo):
        if not X_MIN <= xv <= X_MAX:
            raise DomainError(
                f"x = {xv:g} outside the approximation domain "
                f"[{X_MIN:g}, {X_MAX:g}]; use oracle mode with in-range "
                "temperatures")
    g_lo = _g_end(model, x_at_lo)
    return e_over_r * (_g_end(model, x_at_hi) - g_lo)
