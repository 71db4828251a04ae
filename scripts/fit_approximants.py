#!/usr/bin/env python3
"""Fit minimax rational approximants and write coefficient/report files.

Runs the bisection fitter for each requested degree on the chosen grid
and stores ``g<n>.coeff`` plus ``g<n>.report`` in the output directory.
Each line reports the bisection levels, the LP solves, the guessed LPs
whose level the bisection did not visit (see ``tempint.fitter``) and the
final size of the exchange subset.  Degree 4 on the full default grid
takes minutes of LP time.
"""

import argparse
import pathlib
import sys
import time

from tempint.fitter import FitGrid, FitProblem, bisect_fit
from tempint.harness import EvalGrid
from tempint.rational import save_coeffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", default="1,2,3,4",
                        help="comma-separated degrees to fit (default all)")
    parser.add_argument("--grid", default="paper-eval",
                        help="grid preset or m=lo:hi:step,x=lo:hi:step spec")
    parser.add_argument("--weighting", default="relative",
                        choices=["relative", "absolute"])
    parser.add_argument("--out", default="fits", type=pathlib.Path,
                        help="output directory (default ./fits)")
    args = parser.parse_args(argv)

    degrees = [int(s) for s in args.degrees.split(",")]
    args.out.mkdir(parents=True, exist_ok=True)
    grid = FitGrid.from_eval_grid(EvalGrid.from_spec(args.grid))
    print(f"grid {args.grid}: {grid.size} points")

    for degree in degrees:
        start = time.perf_counter()
        result = bisect_fit(FitProblem(degree=degree, grid=grid,
                                       weighting=args.weighting))
        elapsed = time.perf_counter() - start
        coeff_path = args.out / f"g{degree}.coeff"
        save_coeffs(result.approximant, coeff_path)
        (args.out / f"g{degree}.report").write_text(result.report_text())
        print(f"n={degree}: achieved_dev {result.achieved_dev:.3e} "
              f"(fine {result.achieved_dev_fine:.3e}), "
              f"{result.iterations} bisections, {result.lp_solves} LPs "
              f"(+{result.lp_speculative} unused guesses), "
              f"{result.active_points} active points, {elapsed:.1f}s "
              f"-> {coeff_path}")
        if result.pole_warning:
            print(f"n={degree}: WARNING denominator sign change "
                  f"(denom_min {result.denom_min:.3e})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
