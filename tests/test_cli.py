import argparse
import math
import os
import pathlib
import subprocess
import sys

import pytest

from tempint import cli
from tempint.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# achieved_dev of each preset fit by the bisection fitter that preceded
# differential correction, from its goldens: no fit may deviate more
BISECTION_ACHIEVED_DEV = {
    "fit-n1-arrhenius": 0.0004294154230957137,
    "fit-n1-coarse": 0.005483222114149644,
    "fit-n1-paper-eval": 0.005566759287015666,
    "fit-n1-paper-narrow": 0.0010848668041198994,
    "fit-n2-arrhenius": 1.8048792114200296e-06,
    "fit-n2-coarse": 3.6023213714653224e-05,
    "fit-n2-paper-eval": 3.7095221580241144e-05,
    "fit-n2-paper-narrow": 6.011280063833446e-06,
    "fit-n3-arrhenius": 9.728311267664935e-09,
    "fit-n3-coarse": 1.7290572196237974e-07,
    "fit-n3-paper-eval": 2.3143029448391417e-07,
    "fit-n3-paper-narrow": 3.967903916546334e-08,
    "fit-n4-arrhenius": 1.4065140163666001e-09,
    "fit-n4-coarse": 1.2318781550391122e-09,
    "fit-n4-paper-eval": 2.053195946594144e-09,
    "fit-n4-paper-narrow": 6.6273031507080304e-09,
}

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DOMAIN = "outside working domain m in [-4.0, 4.0], x in [4.0, 100.0]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ORACLE_GOLDEN_POINTS = [
    (m, x) for m in ("-4", "-2", "0", "2.5", "4")
    for x in ("4", repr(math.nextafter(4.0, 5.0)),
              repr(math.nextafter(100.0, 0.0)), "100")
] + [("0", "0"), ("0", "3.9999"), ("0", "100.5"), ("4.5", "10"),
     ("-4.1", "50"), ("nan", "10"), ("0", "-3")]


def _oracle_transcript(capsys):
    chunks = []
    for m, x in ORACLE_GOLDEN_POINTS:
        code, out, err = run(capsys, "oracle", "-m", m, "-x", x)
        chunks.append(f"$ tempint oracle -m {m} -x {x}\nexit {code}\n"
                      f"{out}{err}")
    return "".join(chunks)


def _assert_fit_golden(capsys, tmp_path, degree, grid):
    # the coefficient and report files of a fit are deterministic
    from tempint.harness import EvalGrid, report
    from tempint.rational import load_coeffs
    out_file = tmp_path / "c.coeff"
    code, _, _ = run(capsys, "fit", "--degree", str(degree),
                     "--grid", grid, "--out", str(out_file))
    assert code == 0
    golden = GOLDEN / f"fit-n{degree}-{grid}"
    assert out_file.read_bytes() == golden.with_suffix(".coeff").read_bytes()
    written = (tmp_path / "c.coeff.report").read_bytes()
    assert written == golden.with_suffix(".report").read_bytes()
    # achieved_dev is what ``tempint eval`` finds for the written file,
    # exactly: a coefficient file round-trips bit for bit
    dev = report(load_coeffs(out_file), EvalGrid.from_spec(grid)).eps_max_abs
    assert f"\nachieved_dev {dev!r}\n".encode() in written


class TestOracle:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "oracle", "-m", "-2", "-x", "10")
        assert code == 0
        g_line, h_line = out.splitlines()[:2]
        assert float(g_line.split("=")[1]) == pytest.approx(
            math.exp(-10.0), rel=1e-13)
        assert float(h_line.split("=")[1]) == pytest.approx(1.0, rel=1e-13)

    def test_regression_constant(self, capsys):
        code, out, _ = run(capsys, "oracle", "-m", "0", "-x", "20")
        assert code == 0
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(
            4.7024282154290745e-12, rel=1e-12)

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle", "-m", "0", "-x", "0")
        assert code == 2
        assert "error" in err

    def test_series_bracket(self, capsys):
        code, out, _ = run(capsys, "oracle", "-m", "0", "-x", "50",
                           "--series-terms", "2")
        assert code == 0
        assert "series[2] = 0.96" in out

    @pytest.mark.parametrize("terms", [0, -3])
    def test_series_terms_below_1_exit_2_before_output(self, capsys, terms):
        code, out, err = run(capsys, "oracle", "-m", "0", "-x", "50",
                             "--series-terms", str(terms))
        assert code == 2
        assert out == ""
        assert err == f"error: terms must be >= 1, got {terms}\n"

    @pytest.mark.parametrize("terms", [1000, 10**8])
    def test_divergent_series_exit_2_before_output(self, capsys, terms):
        code, out, err = run(capsys, "oracle", "-m", "0", "-x", "4",
                             "--series-terms", str(terms))
        assert (code, out) == (2, "")
        assert err == ("error: series partial sum at (m=0.0, x=4.0) is not "
                       "finite after 231 terms: the series diverges there\n")

    def test_golden_bytes(self, capsys):
        # stdout, stderr and exit code at the closed-form line m = -2, at
        # both ends of x with their adjacent floats, and out of the domain
        assert _oracle_transcript(capsys) == (
            GOLDEN / "oracle.txt").read_text(encoding="utf-8")


class TestFit:
    def test_trivial_line_fit(self, capsys, tmp_path):
        out_file = tmp_path / "line.fit"
        code, _, _ = run(capsys, "fit", "--degree", "1",
                         "--grid", "m=-2:-2:1,x=4:100:1",
                         "--out", str(out_file))
        assert code == 0
        assert out_file.exists()
        report = (tmp_path / "line.fit.report").read_text()
        assert "mode relative" in report
        assert float(report.splitlines()[1].split()[1]) < 1e-9  # u_plus

    def test_coarse_fit_writes_coeffs(self, capsys, tmp_path):
        out_file = tmp_path / "c.fit"
        code, _, _ = run(capsys, "fit", "--degree", "1", "--grid", "coarse",
                         "--out", str(out_file))
        assert code == 0
        from tempint.rational import load_coeffs
        r = load_coeffs(out_file)
        assert r.degree == 1

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_coarse_fit_golden_bytes(self, capsys, tmp_path, degree):
        _assert_fit_golden(capsys, tmp_path, degree, "coarse")

    def test_paper_eval_fit_golden_bytes(self, capsys, tmp_path):
        # the benchmark's own fit
        _assert_fit_golden(capsys, tmp_path, 2, "paper-eval")

    # paper-eval n3 and n4 are pinned by the acceptance gate's exploratory
    # fits, and the other 14 presets here
    @pytest.mark.parametrize("grid,degree", [
        *(("arrhenius", n) for n in (1, 2, 3, 4)), ("paper-eval", 1),
        *(("paper-narrow", n) for n in (1, 2, 3, 4))])
    def test_preset_fit_golden_bytes(self, capsys, tmp_path, grid, degree):
        _assert_fit_golden(capsys, tmp_path, degree, grid)

    @pytest.mark.parametrize("report_path",
                             sorted(GOLDEN.glob("fit-*.report")),
                             ids=lambda path: path.stem)
    def test_golden_quality_floor(self, report_path):
        # no preset fit deviates more than the bisection fitter's did,
        # each bracket holds its written fit, and u_plus is that fit's
        # deviation as the fitter measures it
        report = dict(line.split(" ", 1) for line in
                      report_path.read_text().splitlines())
        u_minus, u_plus, achieved = (float(report[key]) for key in
                                     ("u_minus", "u_plus", "achieved_dev"))
        assert achieved <= BISECTION_ACHIEVED_DEV[report_path.stem]
        assert u_minus <= achieved
        assert u_plus == pytest.approx(achieved, rel=1e-5)

    @pytest.mark.parametrize("grid", ["coarse", "arrhenius", "paper-eval",
                                      "paper-narrow"])
    def test_golden_lower_ends_nest(self, grid):
        # a degree-n P/Q is also one of degree n + 1, so no sound lower
        # end at n + 1 lies above the written fit's deviation at n
        reports = [dict(line.split(" ", 1) for line in
                        (GOLDEN / f"fit-n{n}-{grid}.report")
                        .read_text().splitlines()) for n in (1, 2, 3, 4)]
        for low, high in zip(reports, reports[1:]):
            assert float(high["u_minus"]) <= float(low["achieved_dev"])

    def test_tol_zero_closes_the_bracket(self, capsys, tmp_path):
        # at --tol 0 the lower end sits BISECTION_TOL_ABS below u_plus,
        # a gap that doubles while the LP cannot resolve it
        from tempint.fitter import BISECTION_TOL_ABS
        out_file = tmp_path / "c.coeff"
        code, _, err = run(capsys, "fit", "--degree", "1", "--grid",
                           "coarse", "--tol", "0", "--out", str(out_file))
        assert (code, err) == (0, "")
        report = dict(line.split(" ", 1) for line in
                      (tmp_path / "c.coeff.report").read_text().splitlines())
        assert int(report["iterations"]) == 5
        gap = float(report["u_plus"]) - float(report["u_minus"])
        assert gap == pytest.approx(8 * BISECTION_TOL_ABS, rel=1e-3)
        assert float(report["u_minus"]) <= float(report["achieved_dev"])

    @pytest.mark.parametrize("tol", ["nan", "2"])
    def test_bad_tol_exit_2(self, capsys, tmp_path, tol):
        out_file = tmp_path / "bad.fit"
        code, _, err = run(capsys, "fit", "--degree", "1", "--grid", "coarse",
                           "--tol", tol, "--out", str(out_file))
        assert code == 2
        assert "bisection_tol_rel" in err
        assert not out_file.exists()

    def test_bad_out_path_exit_2_before_fitting(self, capsys, tmp_path,
                                                monkeypatch):
        def no_fit(problem):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(cli, "bisect_fit", no_fit)
        out_file = tmp_path / "missing_dir" / "x.coeff"
        code, out, err = run(capsys, "fit", "--degree", "1", "--grid",
                             "coarse", "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"{str(out_file)!r}\n")
        # an unwritable report path: the coefficient file is not touched
        out_file = tmp_path / "x.coeff"
        out_file.write_text("keep\n")
        report = tmp_path / "x.coeff.report"
        report.mkdir()
        code, out, err = run(capsys, "fit", "--degree", "1", "--grid",
                             "coarse", "--out", str(out_file))
        assert code == 2
        assert err == f"error: [Errno 21] Is a directory: {str(report)!r}\n"
        assert out_file.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "x.coeff", "x.coeff.report"]

    def test_degree_above_4_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "n5.coeff"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--degree", "5", "--grid", "coarse",
                  "--out", str(out_file)])
        assert exc.value.code == 2
        assert "--degree: invalid choice: 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_degree_choices_follow_max_degree(self):
        from tempint import fitter
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        degree = next(a for a in sub.choices["fit"]._actions
                      if a.dest == "degree")
        assert degree.choices == range(1, fitter.MAX_DEGREE + 1)

    def test_fit_error_before_any_lp_exit_3(self, capsys, tmp_path,
                                            monkeypatch):
        from tempint import fitter

        def failing_fit(problem):
            raise fitter.FitError("fit failed before any LP")

        monkeypatch.setattr(fitter, "bisect_fit", failing_fit)
        out_file = tmp_path / "x.coeff"
        code, out, err = run(capsys, "fit", "--degree", "1", "--grid",
                             "coarse", "--out", str(out_file))
        assert code == 3
        assert out == ""
        assert err == "error: fit failed before any LP\n"
        assert list(tmp_path.iterdir()) == []

    def test_pole_between_grid_points_exit_4(self, capsys, tmp_path,
                                             pole_between_points):
        out_file = tmp_path / "pole.coeff"
        code, out, err = run(capsys, "fit", "--degree", "2", "--grid",
                             "coarse", "--out", str(out_file))
        assert code == 4
        assert out.startswith(f"wrote {out_file} ")
        assert err == ("warning: denominator not proven positive on the fit "
                       "grid's rectangle\n")
        from tempint.rational import load_coeffs
        assert load_coeffs(out_file) == pole_between_points
        report = (tmp_path / "pole.coeff.report").read_text()
        assert "denom_min -188.0\n" in report

    def test_lp_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        from tempint import fitter

        class NeverRuns(fitter._Highs):
            def run(self):
                return fitter.HighsStatus.kError

        # neither warm run of the first LP ends optimal
        monkeypatch.setattr(fitter, "_Highs", NeverRuns)
        out_file = tmp_path / "fail.fit"
        code, out, err = run(capsys, "fit", "--degree", "1", "--grid",
                             "coarse", "--out", str(out_file))
        assert (code, out) == (3, "")
        assert err == ("error: LP solver failed: run status kError, "
                       "model status Not Set\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("grid", [
        "m=-2:2:0.25,x=4:100:5", "m=-4:4:0.5,x=4:100:6",
        "m=-1:3:0.5,x=5:95:3", "m=0:4:0.5,x=4:100:4",
        "m=-4:4:0.4,x=4:100:5"])
    def test_lower_end_with_a_broken_warm_basis(self, capsys, tmp_path,
                                                grid):
        # on these grids both warm rungs of a degree-4 lower-end LP fail
        # from the stored basis; the LP solved cold ends the fit
        out_file = tmp_path / "c.coeff"
        code, _, err = run(capsys, "fit", "--degree", "4", "--grid", grid,
                           "--out", str(out_file))
        assert (code, err) == (0, "")
        report = dict(line.split(" ", 1) for line in
                      (tmp_path / "c.coeff.report").read_text().splitlines())
        assert float(report["u_minus"]) <= float(report["achieved_dev"])


LP_STACK = ("scipy.optimize", "scipy.sparse")
SMALL_GRID = "m=0:1:1,x=4:100:8"


def _lp_stack_loaded(argv):
    """The modules of LP_STACK that a fresh process has loaded after
    ``import tempint.cli`` and, if argv is not empty, ``cli.main(argv)``."""
    script = (f"import sys\nfrom tempint import cli\nargv = {argv!r}\n"
              "assert not argv or cli.main(argv) == 0\n"
              f"print([m for m in {LP_STACK!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          env=env, capture_output=True, text=True)
    return done.stdout.splitlines()[-1]


class TestLpStackLoading:
    # scipy.optimize is most of a fresh process's start-up, and only
    # `fit` needs it
    @pytest.mark.parametrize("argv", [
        [],
        ["list"],
        ["oracle", "-m", "0", "-x", "50", "--series-terms", "2"],
        ["eval", "--model", "G4", "--grid", SMALL_GRID, "--format", "csv"],
        ["compare", "--grid", SMALL_GRID],
        ["tables", "--format", "csv"],
    ], ids=["import", "list", "oracle", "eval", "compare", "tables"])
    def test_unloaded(self, argv):
        assert _lp_stack_loaded(argv) == "[]"

    def test_fit_loads_it(self, tmp_path):
        argv = ["fit", "--degree", "1", "--grid", "coarse",
                "--out", str(tmp_path / "c.coeff")]
        assert _lp_stack_loaded(argv) == str(list(LP_STACK))


class TestCompare:
    def test_table7_layout(self, capsys):
        code, out, _ = run(capsys, "compare", "--models", "J,O,SY,G1,G2,G3,G4",
                           "--grid", "arrhenius")
        assert code == 0
        assert len([ln for ln in out.splitlines() if ln]) >= 8

    def test_unknown_tag_exit_2(self, capsys):
        code, _, err = run(capsys, "compare", "--models", "ZZ",
                           "--grid", "arrhenius")
        assert code == 2
        assert "valid tags" in err

    def test_repeated_tag_exit_2(self, capsys):
        code, out, err = run(capsys, "compare", "--models", "G4,G4",
                             "--grid", "coarse")
        assert (code, out) == (2, "")
        assert err == "error: model 'G4' is listed twice\n"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "compare", "--models", "J,SY",
                           "--grid", "arrhenius", "--format", "csv")
        assert code == 0
        assert out.startswith("model,grid,points,sse,eps_max")

    def test_oracle_error_precedence(self, capsys):
        code, _, err = run(capsys, "compare", "--models", "all",
                           "--grid", "m=3.5:4.5:0.5,x=4:100:4")
        assert code == 2
        assert err.startswith(
            "error: (m=4.5, x=4.0) outside working domain")

    def test_earlier_row_error_wins(self, capsys):
        # the grid is checked when it is made, before the model or its
        # tag: its first point outside the working domain, in C order,
        # names the error
        for grid, point in (("m=0:0.5:0.5,x=2:100:4", "(m=0.0, x=2.0)"),
                            ("m=0:4.5:4.5,x=4:100:4", "(m=4.5, x=4.0)")):
            for tag in ("J", "BOGUS"):
                code, out, err = run(capsys, "eval", "--model", tag,
                                     "--grid", grid)
                assert (code, out) == (2, "")
                assert err == f"error: {point} {DOMAIN}\n"
        # on a grid inside the domain the model's own rule fails
        code, _, err = run(capsys, "eval", "--model", "J",
                           "--grid", "m=0:0.5:0.5,x=4:100:4")
        assert code == 2
        assert err == ("error: model J is not defined at m=0.5; "
                       "allowed: m = 0\n")

    def test_oracle_convergence_error_exit_2(self, capsys, monkeypatch):
        # a cached oracle row would never reach h_array
        from tempint import harness, oracle
        harness.oracle_h_row.cache_clear()
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 2)
        code, out, err = run(capsys, "compare", "--grid", "coarse")
        assert (code, out) == (2, "")
        assert err.startswith("error: continued fraction for Gamma(")
        assert "did not converge within 2 iterations" in err
        assert err.count("\n") == 1

    def test_x_footnoted(self, capsys):
        code, out, _ = run(capsys, "compare", "--models", "X,G",
                           "--grid", "paper-narrow")
        assert code == 0
        assert "tabulated m lines" in out


class TestEval:
    def test_eval_model_text(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "G",
                           "--grid", "m=-2:-2:1,x=4:100:8")
        assert code == 0
        assert "G" in out

    def test_eval_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "SY",
                           "--grid", "arrhenius", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "model,m,x,g_oracle,g_model,eps"

    def test_eval_csv_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "G4",
                           "--grid", "coarse", "--format", "csv")
        assert code == 0
        assert out == (GOLDEN / "eval-G4-coarse.csv").read_text(
            encoding="utf-8")

    def test_eval_csv_numbers_parse(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", "G4",
                           "--grid", "m=-1:1:1,x=4:100:32", "--format", "csv")
        assert code == 0
        for line in out.splitlines()[1:]:
            for field in line.split(",")[1:]:
                float(field)

    def test_non_finite_grid_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "--model", "G",
                             "--grid", "m=0:inf:1,x=4:100:1")
        assert code == 2
        assert out == ""
        assert "non-finite grid range" in err

    def test_oversized_grid_exit_2(self, capsys):
        # a billion-point axis is rejected before any value is built
        code, out, err = run(capsys, "eval", "--model", "G",
                             "--grid", "m=0:1e9:1,x=4:100:1")
        assert code == 2
        assert out == ""
        assert "above the limit of 1000000" in err

    def test_repeated_grid_values_exit_2(self, capsys):
        # a step below the 12-decimal rounding of grid values would repeat
        # m = 0.0 six times and print each row again
        code, out, err = run(capsys, "eval", "--model", "G",
                             "--grid", "m=0:1e-12:1e-13,x=4:100:48")
        assert (code, out) == (2, "")
        assert err == ("error: grid range 0.0:1e-12:1e-13 repeats the value "
                       "0.0: grid values are rounded to 12 decimals\n")

    @pytest.mark.filterwarnings("error")   # no warning from G below -4
    def test_x_out_of_domain_rows_exit_2(self, capsys):
        # X skips its untabulated rows, but a row outside [-4, 4] fails
        # when the grid is made, as it does for G
        for grid, point in (("m=-9:0:0.5,x=4:100:4", "(m=-9.0, x=4.0)"),
                            ("m=-1:5:0.5,x=4:100:4", "(m=4.5, x=4.0)")):
            for tag in ("X", "G"):
                code, out, err = run(capsys, "eval", "--model", tag,
                                     "--grid", grid)
                assert (code, out) == (2, ""), tag
                assert err == f"error: {point} {DOMAIN}\n"

    def test_missing_coeff_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing.coeff"
        code, out, err = run(capsys, "eval", "--coeffs", str(path),
                             "--grid", "coarse")
        assert code == 2
        assert out == ""
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"{str(path)!r}\n")

    def test_eval_coeff_file(self, capsys, tmp_path):
        from tempint.rational import paper_approximant, save_coeffs
        path = tmp_path / "g2.coeff"
        save_coeffs(paper_approximant(2), path)
        code, out, _ = run(capsys, "eval", "--coeffs", str(path),
                           "--grid", "arrhenius")
        assert code == 0

    def test_denominator_sign_change_between_rows(self, capsys, tmp_path):
        # Q = m - 0.05 keeps one sign along every m row but changes sign
        # between the rows m = 0 and m = 0.1: a pole inside the grid
        path = tmp_path / "pole.coeff"
        path.write_text("degree 1\na 0 0 1.0\na 1 0 0.0\na 0 1 0.0\n"
                        "b 0 0 -0.05\nb 1 0 0.0\nb 0 1 1.0\n")
        code, out, err = run(capsys, "eval", "--coeffs", str(path),
                             "--grid", "m=-1:1:0.1,x=4:100:4")
        assert code == 2
        assert out == ""
        assert err == ("error: denominator vanishes or changes sign near "
                       "(m=0.1, x=4.0)\n")


class TestList:
    def test_list_all(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert len(out.splitlines()) == 22  # header + 21 models

    def test_list_filtered(self, capsys):
        code, out, _ = run(capsys, "list", "--m", "3")
        assert code == 0
        assert len(out.splitlines()) == 18
        assert "SY" not in out
        assert [line.split()[0] for line in out.splitlines()[1:]] == [
            "G", "W1", "W2", "C1", "C2", "C3", "Ch1", "Ch2", "Ch3", "Ch4",
            "Cp", "Cs", "L", "G1", "G2", "G3", "G4"]

    @pytest.mark.parametrize("m", ["nan", "inf", "-inf"])
    def test_list_non_finite_m_exit_2(self, capsys, m):
        code, out, err = run(capsys, "list", f"--m={m}")
        assert (code, out) == (2, "")
        assert err == f"error: non-finite m={m}\n"

    @pytest.mark.parametrize("m", ["-7", "4.5"])
    def test_list_outside_working_domain_empty(self, capsys, m):
        # models labelled [-4, 4] are not defined outside it
        code, out, _ = run(capsys, "list", "--m", m)
        assert code == 0
        assert out.splitlines() == [out.splitlines()[0]]   # the header


class TestTables:
    def test_corrupted_coefficient_detected(self, capsys, tmp_path,
                                            monkeypatch):
        # altering one digit of the bundled degree-3 file must trip the
        # degree-3 accuracy cells
        import tempint.rational as rational
        r3 = rational.paper_approximant(3)
        bad_numer = list(r3.numer.coeffs)
        bad_numer[1] += 1e-3   # a_10
        bad = rational.RationalApproximant(
            rational.BivariatePoly(3, bad_numer), r3.denom)
        monkeypatch.setitem(rational._PAPER_CACHE, 3, bad)
        import tempint.tables as tables
        cells, _ = tables.reproduce_all()
        failing = [c for c in cells if not c.ok]
        assert any(c.table == "table5" and c.row == "n=3" for c in failing)

    def test_tables_csv_schema(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "csv")
        assert out.splitlines()[0] == \
            "table,row,column,expected,actual,tolerance,status"
        assert code == 0

    def test_tables_csv_golden_bytes(self, capsys):
        # the text format's %.3E hides a one-ulp change in a cell; the
        # CSV prints each cell's repr, as the benchmark's golden holds it
        code, out, err = run(capsys, "tables", "--format", "csv")
        assert (code, err) == (0, "")
        golden = ROOT / "perfbench" / "golden" / "tables.csv"
        assert out.encode("utf-8") == golden.read_bytes()

    def test_tables_text_golden(self, capsys):
        code, out, err = run(capsys, "tables")
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "tables.txt").read_text(encoding="utf-8")

    def test_one_model_evaluation_per_report(self, monkeypatch):
        # 17 paper-eval reports, J, O and SY on the m = 0 line and X on
        # paper-narrow; every other cell is a row subset of those
        import tempint.models as models
        import tempint.tables as tables
        calls = []
        model_h = models.model_h

        def counted(model, m, x):
            calls.append(model)
            return model_h(model, m, x)

        monkeypatch.setattr(models, "model_h", counted)
        cells, ordered = tables.reproduce_all()
        assert len(cells) == 91 and ordered
        assert len(calls) == 21
        assert sorted(calls) == sorted([*tables.TABLE10, "J", "O", "SY", "X"])
        assert [c.table for c in cells] == (
            ["table5"] * 8 + ["table7"] * 14 + ["table10"] * 69)
