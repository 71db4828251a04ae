import math
import pathlib

import pytest

from tempint.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


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
        # the coefficient and report files of a fit are deterministic
        out_file = tmp_path / "c.coeff"
        code, _, _ = run(capsys, "fit", "--degree", str(degree),
                         "--grid", "coarse", "--out", str(out_file))
        assert code == 0
        golden = GOLDEN / f"fit-n{degree}-coarse"
        assert out_file.read_bytes() == golden.with_suffix(".coeff").read_bytes()
        assert ((tmp_path / "c.coeff.report").read_bytes()
                == golden.with_suffix(".report").read_bytes())

    @pytest.mark.parametrize("tol", ["nan", "2"])
    def test_bad_tol_exit_2(self, capsys, tmp_path, tol):
        out_file = tmp_path / "bad.fit"
        code, _, err = run(capsys, "fit", "--degree", "1", "--grid", "coarse",
                           "--tol", tol, "--out", str(out_file))
        assert code == 2
        assert "bisection_tol_rel" in err
        assert not out_file.exists()

    def test_lp_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        from scipy.optimize import OptimizeResult

        from tempint import fitter

        def failing_solve(system, warm):
            return OptimizeResult(status=4, message="numerical difficulties")

        monkeypatch.setattr(fitter, "_solve_phase1", failing_solve)
        out_file = tmp_path / "fail.fit"
        code, _, err = run(capsys, "fit", "--degree", "1", "--grid", "coarse",
                           "--out", str(out_file))
        assert code == 3
        assert err.startswith("error: LP solver failed (status 4)")
        assert not out_file.exists()


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
        # row m=0 fails in the oracle (x=2) before row m=0.5 fails in J
        code, _, err = run(capsys, "eval", "--model", "J",
                           "--grid", "m=0:0.5:0.5,x=2:100:4")
        assert code == 2
        assert err.startswith("error: (m=0.0, x=2.0) outside working domain")
        # within a row the model is checked before the oracle
        code, _, err = run(capsys, "eval", "--model", "J",
                           "--grid", "m=0:4.5:4.5,x=4:100:4")
        assert code == 2
        assert "model J is not defined at m=4.5" in err

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

    @pytest.mark.filterwarnings("error")   # no warning from G below -4
    def test_x_out_of_domain_rows_exit_2(self, capsys):
        # untabulated rows inside [-4, 4] are skipped, the rows below -4
        # fail as they do for G
        for tag in ("X", "G"):
            code, out, err = run(capsys, "eval", "--model", tag,
                                 "--grid", "m=-9:0:0.5,x=4:100:4")
            assert code == 2, tag
            assert out == ""
            assert "m=-9.0" in err
        code, _, err = run(capsys, "eval", "--model", "X",
                           "--grid", "m=-1:5:0.5,x=4:100:4")
        assert code == 2
        assert "model X is not defined at m=4.5" in err

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
        cells = tables.reproduce_table5()
        failing = [c for c in cells if not c.ok]
        assert any(c.row == "n=3" for c in failing)

    def test_tables_csv_schema(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "csv")
        assert out.splitlines()[0] == \
            "table,row,column,expected,actual,tolerance,status"
        assert code == 0
