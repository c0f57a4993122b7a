import pytest

from keycap import ChannelParams, SolverConfig


@pytest.fixture
def fig1_params():
    """Operating point used throughout: var_d=1, var_e=2."""
    def make(a_squared):
        return ChannelParams(a_squared**0.5, 1.0, 2.0)

    return make


@pytest.fixture
def fast_cfg():
    """The solver config the unit tests pass explicitly: the default."""
    return SolverConfig()
