"""Regression gates against the published accuracy tables.

Stored reference values are the published (SSE, max |eps|) aggregates
for the bundled approximants and the literature models.  Each cell is
recomputed from scratch and compared at the acceptance tolerance:
2% for the three Arrhenius-integral baselines, 5% for every other
max-deviation cell, 10% for the bundled approximants' SSE cells (SSE
compounds the squared per-point differences of the underlying oracle).

The tables share one x axis and their m ranges nest, so each Table 10
model is evaluated once, on the full paper-eval grid.  Table 5's cells
are the G1-G4 reports of that evaluation; Table 10's paper-narrow column
and Table 7's G1-G4 cells (the m = 0 line) are row subsets of its
reports (``harness.restrict``), bit-identical to evaluating those grids
afresh.  Only J, O and SY, defined at m = 0 alone, and X on its
tabulated lines are evaluated on grids of their own.  ``reproduce_all``
is the one entry: a table's cells are those with its ``Cell.table``.
"""

from __future__ import annotations

from dataclasses import dataclass

from tempint.harness import EvalGrid, report, restrict

# the three grids of the published tables, parsed once
PAPER_EVAL = EvalGrid.from_spec("paper-eval")
PAPER_NARROW = EvalGrid.from_spec("paper-narrow")
ARRHENIUS = EvalGrid.from_spec("arrhenius")

# degree -> (eps_max, sse) on the full grid
TABLE5 = {
    1: (1.12e-02, 1.34e-01),
    2: (6.26e-05, 3.21e-06),
    3: (1.72e-06, 1.80e-09),
    4: (6.18e-07, 3.77e-10),
}

# model -> (sse, eps_max) on the m = 0 line
TABLE7 = {
    "J": (3.45e-11, 5.66e-06),
    "O": (7.25e-11, 1.87e-06),
    "SY": (7.86e-09, 8.15e-05),
    "G1": (1.89e-03, 6.79e-03),
    "G2": (4.62e-08, 3.95e-05),
    "G3": (1.33e-11, 8.89e-07),
    "G4": (6.72e-12, 3.95e-07),
}
TABLE7_ORDERING = ("G4", "G3", "O", "J", "SY")   # ascending eps_max

# model -> ((sse, eps_max) narrow m-range, (sse, eps_max) full m-range)
TABLE10 = {
    "G": ((2.67e-01, 5.58e-02), (8.45e-01, 2.31e-01)),
    "W1": ((5.11e-02, 2.79e-02), (2.49e-01, 1.62e-01)),
    "W2": ((1.81e+00, 1.76e-01), (3.61e+00, 2.20e-01)),
    "C1": ((1.11e-03, 7.89e-03), (2.34e-02, 5.42e-02)),
    "C2": ((3.53e-05, 1.21e-03), (2.07e-02, 5.76e-02)),
    "C3": ((2.29e-03, 1.02e-02), (1.24e-02, 3.71e-02)),
    "Ch1": ((2.31e-04, 3.36e-03), (3.06e-01, 2.97e-01)),
    "Ch2": ((1.82e+00, 2.02e-01), (4.90e+00, 2.65e-01)),
    "Ch3": ((7.16e-02, 3.26e-02), (3.51e-01, 1.84e-01)),
    "Ch4": ((1.03e-02, 1.88e-02), (1.93e-02, 1.91e-02)),
    "Cp": ((4.39e-02, 5.58e-02), (2.12e-01, 1.04e-01)),
    "Cs": ((1.50e-03, 7.21e-03), (1.02e-02, 3.60e-02)),
    "L": ((1.36e-03, 4.43e-03), (1.21e-02, 3.90e-02)),
    "G1": ((7.67e-02, 7.13e-03), (1.34e-01, 1.12e-02)),
    "G2": ((1.73e-06, 6.25e-05), (3.21e-06, 6.26e-05)),
    "G3": ((6.80e-10, 1.29e-06), (1.80e-09, 1.72e-06)),
    "G4": ((2.13e-10, 5.19e-07), (3.77e-10, 6.18e-07)),
}
TABLE10_X_EPS_MAX = 6.14e-04   # over the tabulated m lines, narrow case

TOL_ARRHENIUS_BASELINE = 0.02
TOL_EPS_MAX = 0.05
TOL_SSE_LITERATURE = 0.05
TOL_SSE_BUNDLED = 0.10

_BUNDLED = ("G1", "G2", "G3", "G4")


@dataclass
class Cell:
    table: str
    row: str
    column: str
    expected: float
    actual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.actual / self.expected - 1.0) <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"[{status}] {self.table} {self.row} {self.column}: "
                f"expected {self.expected:.2E}, got {self.actual:.3E} "
                f"(tol {self.tolerance:.0%})")


def _sse_tol(model: str) -> float:
    return TOL_SSE_BUNDLED if model in _BUNDLED else TOL_SSE_LITERATURE


def _table5(full):
    for n, (eps_max, sse) in TABLE5.items():
        r = full[f"G{n}"]
        yield Cell("table5", f"n={n}", "eps_max", eps_max, r.eps_max_abs,
                   TOL_EPS_MAX)
        yield Cell("table5", f"n={n}", "sse", sse, r.sse, TOL_SSE_BUNDLED)


def _table7(full):
    for model, (sse, eps_max) in TABLE7.items():
        r = (restrict(full[model], ARRHENIUS) if model in _BUNDLED
             else report(model, ARRHENIUS))
        baseline = model in ("J", "O", "SY")
        yield Cell("table7", model, "sse", sse, r.sse,
                   TOL_ARRHENIUS_BASELINE if baseline else _sse_tol(model))
        yield Cell("table7", model, "eps_max", eps_max, r.eps_max_abs,
                   TOL_ARRHENIUS_BASELINE if baseline else TOL_EPS_MAX)


def _table10(full):
    narrow = {model: restrict(full[model], PAPER_NARROW) for model in TABLE10}
    for grid, col, reports in ((PAPER_NARROW, 0, narrow),
                               (PAPER_EVAL, 1, full)):
        for model, pairs in TABLE10.items():
            sse, eps_max = pairs[col]
            r = reports[model]
            yield Cell("table10", model, f"sse[{grid.spec}]",
                       sse, r.sse, _sse_tol(model))
            yield Cell("table10", model, f"eps_max[{grid.spec}]",
                       eps_max, r.eps_max_abs, TOL_EPS_MAX)
    yield Cell("table10", "X", "eps_max[tabulated m]", TABLE10_X_EPS_MAX,
               report("X", PAPER_NARROW).eps_max_abs, TOL_EPS_MAX)


def reproduce_all():
    """All cells of Tables 5, 7 and 10, in that order, plus the flag of
    Table 7's ordering, from one paper-eval report per Table 10 model.
    The reports are made anew on every call and never kept: a kept
    report would miss a change to the bundled approximants."""
    full = {tag: report(tag, PAPER_EVAL) for tag in TABLE10}
    cells = [*_table5(full), *_table7(full), *_table10(full)]
    eps = {c.row: c.actual for c in cells
           if c.table == "table7" and c.column == "eps_max"}
    ordered = all(eps[a] < eps[b]
                  for a, b in zip(TABLE7_ORDERING, TABLE7_ORDERING[1:]))
    return cells, ordered
