import pytest
from hypothesis import settings

from esdp.core import Constant, EconomicEnvironment, Scenario

# the same examples on every run, and no per-example deadline on slow hosts
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def baseline_env():
    # factor-3 speedup, 0.05 USD/s, 600 s delay: break-even for a 10 USD reward
    return EconomicEnvironment(speedup=3.0, cost_rate=0.05, honest_delay=600.0)


@pytest.fixture
def baseline_scenario(baseline_env):
    return Scenario(env=baseline_env, reward=Constant(10.0))
