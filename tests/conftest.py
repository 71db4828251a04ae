import pytest

from tempint.harness import EvalGrid


@pytest.fixture(scope="session")
def paper_eval_grid():
    return EvalGrid.from_spec("paper-eval")


@pytest.fixture(scope="session")
def arrhenius_grid():
    return EvalGrid.from_spec("arrhenius")
