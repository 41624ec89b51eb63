import os

import pytest
from hypothesis import settings

from zitter import codata, derive_constants

#: a longer run of the command-line fuzz in test_config_fuzz.py: 300 examples
#: drawn from ``--hypothesis-seed`` instead of the default run's 30 derandomized ones
settings.register_profile("cli-fuzz", max_examples=300, derandomize=False)


@pytest.fixture(scope="session")
def fc():
    return codata()


@pytest.fixture(scope="session")
def dc(fc):
    return derive_constants(fc)


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps the processes it starts."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
