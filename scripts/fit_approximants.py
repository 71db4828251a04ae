#!/usr/bin/env python3
"""Fit minimax rational approximants: one ``tempint fit`` per degree.

Runs ``tempint fit --degree <n> --grid <spec> --out <dir>/g<n>.coeff``
for each degree; it writes ``g<n>.coeff`` and ``g<n>.coeff.report``,
with that command's messages and exit codes (3: fit failed; 4: pole
warning, files still written).  Every degree is fitted, and the first
that fails sets the exit code.  A bad ``--degrees`` or ``--grid``
exits 2 before the output directory exists.
"""

import argparse
import pathlib
import sys

from tempint import cli
from tempint.harness import EvalGrid
from tempint.oracle import DomainError
from tempint.rational import MAX_DEGREE


def parse_degrees(text: str) -> list[int]:
    """The comma-separated degrees of ``text``, each in 1..MAX_DEGREE."""
    try:
        degrees = [int(s) for s in text.split(",")]
        if all(1 <= n <= MAX_DEGREE for n in degrees):
            return degrees
    except ValueError:
        pass
    raise ValueError(f"--degrees must list integers in 1..{MAX_DEGREE}, "
                     f"got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degrees", default="1,2,3,4",
                        help="comma-separated degrees to fit (default all)")
    parser.add_argument("--grid", default="paper-eval",
                        help="grid preset or m=lo:hi:step,x=lo:hi:step spec")
    parser.add_argument("--out", default="fits", type=pathlib.Path,
                        help="output directory (default ./fits)")
    args = parser.parse_args(argv)

    try:
        degrees = parse_degrees(args.degrees)
        grid = EvalGrid.from_spec(args.grid)
    except (ValueError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_DOMAIN
    args.out.mkdir(parents=True, exist_ok=True)
    print(f"grid {args.grid}: {grid.size} points")

    status = cli.EXIT_OK
    for degree in degrees:
        code = cli.main(["fit", "--degree", str(degree), "--grid", args.grid,
                         "--out", str(args.out / f"g{degree}.coeff")])
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
