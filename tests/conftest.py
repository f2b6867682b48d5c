import pytest

from semrelay import barrier
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


class BarrierEvals:
    """Counts of the barrier callbacks: `full` and `value` are the numbers
    of eval_full and eval_value calls."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.full = self.value = 0


@pytest.fixture
def barrier_evals(monkeypatch):
    """Patch barrier.maximize to count the callbacks of every solve into
    the returned BarrierEvals."""
    evals = BarrierEvals()
    maximize = barrier.maximize

    def counting(eval_full, eval_value, *args, **kwargs):
        def full(x, t):
            evals.full += 1
            return eval_full(x, t)

        def value(x, t):
            evals.value += 1
            return eval_value(x, t)

        return maximize(full, value, *args, **kwargs)

    monkeypatch.setattr(barrier, "maximize", counting)
    return evals
