"""scripts/fit_approximants.py: its files and its exit codes."""

import dataclasses
import importlib.util
import pathlib

import pytest

from tempint import fitter

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
        golden = GOLDEN / f"fit-n{degree}-coarse"
        for suffix in (".coeff", ".report"):
            assert ((tmp_path / f"g{degree}").with_suffix(suffix).read_bytes()
                    == golden.with_suffix(suffix).read_bytes())
    assert capsys.readouterr().err == ""


def test_not_converged_exit_3(script, tmp_path, monkeypatch, capsys):
    # as with `tempint fit`, the unconverged fit's files are still written
    monkeypatch.setattr(fitter, "MAX_BISECTIONS", 3)
    assert script.main(["--degrees", "1", "--grid", "coarse",
                        "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "n=1: WARNING bisection did not converge\n")
    assert (tmp_path / "g1.coeff").exists()


def test_fit_error_exit_3(script, tmp_path, monkeypatch, capsys):
    def failing_fit(problem):
        raise fitter.FitError("LP solver failed (status 4)")

    monkeypatch.setattr(script, "bisect_fit", failing_fit)
    assert script.main(["--degrees", "1", "--grid", "coarse",
                        "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "n=1: error: LP solver failed (status 4)\n")
    assert not list(tmp_path.iterdir())


def test_first_failing_degree_sets_exit_code(script, tmp_path, monkeypatch,
                                             capsys):
    # degree 1 converges with a pole warning, degree 2 fails; both run
    real_fit = script.bisect_fit

    def fit(problem):
        if problem.degree == 2:
            raise fitter.FitError("LP solver failed (status 4)")
        return dataclasses.replace(real_fit(problem), pole_warning=True)

    monkeypatch.setattr(script, "bisect_fit", fit)
    assert script.main(["--degrees", "1,2", "--grid", "m=-2:-2:1,x=4:100:1",
                        "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("n=1: WARNING denominator sign change")
    assert err[1] == "n=2: error: LP solver failed (status 4)"
