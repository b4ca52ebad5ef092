import numpy as np
import pytest


@pytest.fixture()
def gen():
    return np.random.default_rng(20240811)
