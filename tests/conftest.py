import pytest

from semrelay.model import SigmoidFit, SystemParams
from semrelay.penalty import PenaltyConfig, run


@pytest.fixture(scope="session")
def params():
    return SystemParams()


@pytest.fixture(scope="session")
def fit():
    return SigmoidFit()


@pytest.fixture(scope="session")
def cfg():
    return PenaltyConfig()


@pytest.fixture(scope="session")
def default_report(params, fit, cfg):
    """One full penalty run at the default W = 1 MHz, shared across tests."""
    return run(params, fit, cfg)


@pytest.fixture(scope="session")
def wide_report(fit, cfg):
    """One full penalty run at W = 10 MHz, where the default start misses
    the similarity floor and the semantic cap binds at the optimum."""
    return run(SystemParams(W=1e7), fit, cfg)
