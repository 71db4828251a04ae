#!/usr/bin/env python3
"""Fit minimax rational approximants and write coefficient/report files.

Runs the bisection fitter for each requested degree on the chosen grid
and stores ``g<n>.coeff`` plus ``g<n>.report`` in the output directory.
Each line reports the bisection levels, the LP solves and the final
size of the exchange subset (see ``tempint.fitter``).  Degree 4 on the
full default grid takes under a minute of LP time.

Exit codes are those of ``tempint fit``: 3 if a fit did not converge
(its files are still written) or its LP solver failed, 4 if it converged
with a pole warning.  Every degree is fitted; the first one that fails
sets the exit code.
"""

import argparse
import pathlib
import sys
import time

from tempint.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_POLE_WARNING
from tempint.fitter import FitError, FitGrid, FitProblem, bisect_fit
from tempint.harness import EvalGrid
from tempint.rational import save_coeffs


def fit_degree(degree: int, grid: FitGrid, out: pathlib.Path) -> int:
    """Fit one degree, write its files and return its exit code."""
    start = time.perf_counter()
    result = bisect_fit(FitProblem(degree=degree, grid=grid))
    elapsed = time.perf_counter() - start
    coeff_path = out / f"g{degree}.coeff"
    save_coeffs(result.approximant, coeff_path)
    (out / f"g{degree}.report").write_text(result.report_text())
    print(f"n={degree}: achieved_dev {result.achieved_dev:.3e} "
          f"(fine {result.achieved_dev_fine:.3e}), "
          f"{result.iterations} bisections, {result.lp_solves} LPs, "
          f"{result.active_points} active points, {elapsed:.1f}s "
          f"-> {coeff_path}")
    if not result.converged:
        print(f"n={degree}: WARNING bisection did not converge",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    if result.pole_warning:
        print(f"n={degree}: WARNING denominator sign change "
              f"(denom_min {result.denom_min:.3e})", file=sys.stderr)
        return EXIT_POLE_WARNING
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", default="1,2,3,4",
                        help="comma-separated degrees to fit (default all)")
    parser.add_argument("--grid", default="paper-eval",
                        help="grid preset or m=lo:hi:step,x=lo:hi:step spec")
    parser.add_argument("--out", default="fits", type=pathlib.Path,
                        help="output directory (default ./fits)")
    args = parser.parse_args(argv)

    degrees = [int(s) for s in args.degrees.split(",")]
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        grid = FitGrid.from_eval_grid(EvalGrid.from_spec(args.grid))
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print(f"grid {args.grid}: {grid.size} points")

    status = EXIT_OK
    for degree in degrees:
        try:
            code = fit_degree(degree, grid, args.out)
        except FitError as exc:
            print(f"n={degree}: error: {exc}", file=sys.stderr)
            code = EXIT_NOT_CONVERGED
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
