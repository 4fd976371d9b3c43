import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, and keep no
# example database, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
