import math

import pytest

from tempint.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "oracle", "-m", "1.3", "-x", "42")
        _, out2, _ = run(capsys, "oracle", "-m", "1.3", "-x", "42")
        assert out1 == out2


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

    def test_eval_coeff_file(self, capsys, tmp_path):
        from tempint.rational import paper_approximant, save_coeffs
        path = tmp_path / "g2.coeff"
        save_coeffs(paper_approximant(2), path)
        code, out, _ = run(capsys, "eval", "--coeffs", str(path),
                           "--grid", "arrhenius")
        assert code == 0


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


class TestTables:
    def test_corrupted_coefficient_detected(self, capsys, tmp_path,
                                            monkeypatch):
        # altering one digit of the bundled degree-3 file must trip the
        # degree-3 accuracy cells
        import tempint.rational as rational
        r3 = rational.paper_approximant(3)
        bad_numer = dict(r3.numer.coeffs)
        bad_numer[(1, 0)] += 1e-3
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
