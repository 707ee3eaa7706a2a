from pathlib import Path

import numpy as np
import pytest

from hoq import SystemRegistry

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # a file left open fails its test: the unclosed file's ResourceWarning is
    # raised from its finalizer, which pytest reports as unraisable.  Not set
    # in pyproject.toml, whose filters also reach perfbench/tests, where a
    # test still leaves a file open.
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(
                pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


@pytest.fixture
def qubit_reg():
    return SystemRegistry.of(A=2, B=2, C=2, D=2, P=4, F=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
