"""scripts/fit_approximants.py: its input checks, files and exit codes."""

import dataclasses
import importlib.util
import pathlib

import pytest

from tempint import cli, fitter

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location(
        "fit_approximants", ROOT / "scripts" / "fit_approximants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coarse_fits_match_the_cli_goldens(script, tmp_path, capsys):
    assert script.main(["--degrees", "1,2", "--grid", "coarse",
                        "--out", str(tmp_path)]) == 0
    for degree in (1, 2):
        coeff = tmp_path / f"g{degree}.coeff"
        golden = GOLDEN / f"fit-n{degree}-coarse"
        assert coeff.read_bytes() == golden.with_suffix(".coeff").read_bytes()
        assert (pathlib.Path(f"{coeff}.report").read_bytes()
                == golden.with_suffix(".report").read_bytes())
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["--degrees", "5"],
    ["--degrees", "0"],
    ["--degrees", ""],
    ["--degrees", "1,x"],
    ["--grid", "bogus"],
    # each axis is within the limit, the grid is not
    ["--grid", "m=-4:4:0.001,x=4:100:0.01"],
    # a grid outside the oracle's working domain
    ["--grid", "m=-6:0:1,x=4:100:4"],
])
def test_bad_input_exits_2_before_writing(script, tmp_path, capsys, argv):
    out = tmp_path / "fits"
    assert script.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_fit_error_exit_3(script, tmp_path, monkeypatch, capsys):
    def failing_fit(problem):
        raise fitter.FitError("LP solver failed (status 4)")

    monkeypatch.setattr(cli, "bisect_fit", failing_fit)
    assert script.main(["--degrees", "1", "--grid", "coarse",
                        "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: LP solver failed (status 4)\n"
    assert not list(tmp_path.iterdir())


def test_first_failing_degree_sets_exit_code(script, tmp_path, monkeypatch,
                                             capsys):
    # degree 1 converges with a pole warning, degree 2 fails; both run
    real_fit = cli.bisect_fit

    def fit(problem):
        if problem.degree == 2:
            raise fitter.FitError("LP solver failed (status 4)")
        return dataclasses.replace(real_fit(problem), pole_warning=True)

    monkeypatch.setattr(cli, "bisect_fit", fit)
    assert script.main(["--degrees", "1,2", "--grid", "m=-2:-2:1,x=4:100:1",
                        "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "warning: denominator not proven positive on the fit grid's "
        "rectangle",
        "error: LP solver failed (status 4)"]
