import numpy as np
import pytest

from hoq import SystemRegistry


@pytest.fixture
def qubit_reg():
    return SystemRegistry.of(A=2, B=2, C=2, D=2, P=4, F=4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
