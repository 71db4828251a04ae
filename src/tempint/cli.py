"""Command-line interface.

Subcommands: oracle, fit, eval, compare, tables, list.  Output is
deterministic: fixed grid order and no randomness anywhere, so
identical invocations produce byte-identical results.

Exit codes: 0 success; 2 domain/validation error, or a file that cannot
be read or written; 3 fit failed (its LP solver failed, or an oracle
target is not positive); 4 fit converged but its denominator is not
proven positive on the fit grid's rectangle (the coefficient file is
still written); 5 a table-reproduction cell is out of tolerance.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile

from tempint import harness, models, tables
from tempint.harness import EvalGrid
from tempint.models import ModelDomainError
from tempint.oracle import EvalPoint, OracleError, g_cf, h, h_series
from tempint.rational import (MAX_DEGREE, ParseError, PoleError, load_coeffs,
                              save_coeffs)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_FIT_FAILED = 3
EXIT_POLE_WARNING = 4
EXIT_TABLE_MISMATCH = 5


def _write_output(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, without
    creating or truncating it."""
    try:
        if os.path.lexists(path):
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        else:
            tempfile.TemporaryFile(dir=os.path.dirname(path) or ".").close()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def cmd_oracle(args) -> int:
    # every value first, so a rejected input prints nothing to stdout
    point = EvalPoint(args.m, args.x)
    lines = [f"g({args.m:g}, {args.x:g}) = {g_cf(point)!r}",
             f"h({args.m:g}, {args.x:g}) = {h(point)!r}"]
    if args.series_terms is not None:
        k = args.series_terms
        lines += [f"series[{n}] = {h_series(point, n)!r}" for n in (k, k + 1)]
    print("\n".join(lines))
    return EXIT_OK


def bisect_fit(problem):
    """``fitter.bisect_fit``.  Only ``fit`` imports the fitter, and with
    it scipy's LP stack; every other command starts without them."""
    from tempint import fitter
    return fitter.bisect_fit(problem)


def cmd_fit(args) -> int:
    from tempint.fitter import FitError, FitGrid, FitProblem
    grid = EvalGrid.from_spec(args.grid)
    try:
        fit_grid = FitGrid.from_eval_grid(grid)
        problem = FitProblem(degree=args.degree, grid=fit_grid,
                             bisection_tol_rel=args.tol)
        # a fit can take seconds; find a bad output path before it
        for path in (args.out, args.out + ".report"):
            _check_writable(path)
        result = bisect_fit(problem)
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIT_FAILED
    save_coeffs(result.approximant, args.out)
    _write_output(result.report_text(), args.out + ".report")
    print(f"wrote {args.out} (u* in [{result.u_minus:.6E}, "
          f"{result.u_plus:.6E}], achieved_dev {result.achieved_dev:.6E})")
    if result.pole_warning:
        print("warning: denominator not proven positive on the fit grid's "
              "rectangle", file=sys.stderr)
        return EXIT_POLE_WARNING
    return EXIT_OK


def cmd_eval(args) -> int:
    grid = EvalGrid.from_spec(args.grid)
    # report looks the model tag up first: an unknown one raises KeyError
    model = load_coeffs(args.coeffs) if args.coeffs else args.model
    rep = harness.report(model, grid)
    if args.format == "csv":
        text = harness.render_per_point_csv(rep)
    else:
        text = harness.render_comparison_text([rep])
    _write_output(text, args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    grid = EvalGrid.from_spec(args.grid)
    tags = harness.resolve_model_list(args.models, grid)
    for tag in tags:
        models.model_info(tag)
    reports = harness.compare(tags, grid)
    if args.format == "csv":
        text = harness.render_comparison_csv(reports)
    else:
        text = harness.render_comparison_text(reports)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_tables(args) -> int:
    cells, ordered = tables.reproduce_all()
    failures = [c for c in cells if not c.ok]
    if args.format == "csv":
        lines = ["table,row,column,expected,actual,tolerance,status"]
        for c in cells:
            lines.append(f"{c.table},{c.row},{c.column},{c.expected!r},"
                         f"{c.actual!r},{c.tolerance!r},"
                         f"{'pass' if c.ok else 'fail'}")
        text = "\n".join(lines) + "\n"
    else:
        chunks = []
        for name in ("table5", "table7", "table10"):
            chunks.append(f"== {name} ==")
            chunks.extend(c.line() for c in cells if c.table == name)
        status = "PASS" if ordered else "FAIL"
        chunks.append(f"[{status}] table7 ordering G4 < G3 < O < J < SY")
        text = "\n".join(chunks) + "\n"
    _write_output(text, args.out)
    if failures or not ordered:
        for c in failures:
            print(c.line(), file=sys.stderr)
        if not ordered:
            print("[FAIL] table7 ordering G4 < G3 < O < J < SY",
                  file=sys.stderr)
        return EXIT_TABLE_MISMATCH
    return EXIT_OK


def cmd_list(args) -> int:
    infos = models.list_models(args.m)
    print(f"{'tag':<5} {'m-domain':<22} {'univariate':<11} citation")
    for info in infos:
        print(f"{info.tag:<5} {info.label:<22} "
              f"{str(info.univariate).lower():<11} {info.citation}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="tempint",
        description="General temperature integral: oracle, minimax rational "
                    "fitting, and model benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="evaluate g(m, x) and h(m, x)")
    p.add_argument("-m", type=float, required=True)
    p.add_argument("-x", type=float, required=True)
    p.add_argument("--series-terms", type=int, default=None,
                   help="also print the asymptotic series bracket")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fit", help="fit a minimax rational approximant")
    p.add_argument("--degree", type=int, required=True,
                   choices=range(1, MAX_DEGREE + 1))
    p.add_argument("--grid", default="paper-eval",
                   help="preset name or m=lo:hi:step,x=lo:hi:step")
    p.add_argument("--tol", type=float, default=1e-4,
                   help="relative bisection stopping tolerance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="deviation report for one model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model tag (see 'list')")
    group.add_argument("--coeffs", help="coefficient file of a fitted "
                                        "approximant")
    p.add_argument("--grid", default="paper-eval")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="rank models by max deviation")
    p.add_argument("--models", default="all",
                   help="comma-separated tags, or 'all'")
    p.add_argument("--grid", default="paper-eval")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tables", help="reproduce the published accuracy "
                                      "tables and gate each cell")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("list", help="list models and their m-domains")
    p.add_argument("--m", type=float, default=None,
                   help="only models defined at this m")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelDomainError, ParseError, PoleError, OracleError, KeyError,
            ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
