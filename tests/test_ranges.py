"""Every public entry point judges its inputs by one of two rules:
`core.as_count` for counts and `core.in_range` for reals. A value outside
its range is a ValueError that names the argument, never a nan or negative
delay, a wrong stream or a TypeError."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esdp import core
from esdp.core import (
    Bounded,
    Constant,
    EconomicEnvironment,
    Empirical,
    Exponential,
    Lognormal,
    MarkovOU,
    Scenario,
    check_violations,
    harmonic_number,
    validate_scenario,
)
from esdp.equilibrium import (
    conditional_inverse_expectation,
    equilibrium_attack_probability,
)
from esdp.montecarlo import (
    SimConfig,
    commit_profit_samples,
    estimate_tail_probability,
    grinding_max_oracle,
)
from esdp.stopping import GridSpec, solve
from esdp.thresholds import (
    MomentBounds,
    ParameterIntervals,
    abort_threshold,
    coalition_threshold,
    composition_threshold,
    epsilon_robust_threshold,
    esdp,
    expected_max_exponential,
    expected_profit,
    grinding_threshold,
    linear_threshold,
    multiround_threshold,
    robust_interval_threshold,
)

ENV = EconomicEnvironment(3.0, 0.05, 600.0)
SCENARIO = Scenario(ENV, Exponential(10.0))
CONSTANT_300 = Scenario(EconomicEnvironment(3.0, 0.05, 300.0), Constant(10.0))
IV = ParameterIntervals(3.0, 0.05, 10.0)
CFG = SimConfig(trials=10)


def _record(make):
    """A call that checks the record `make(x)` builds by its violations()."""
    return lambda x: check_violations(make(x).violations())


def _scenario(name, make=lambda x: x):
    """A call that validates SCENARIO with the modifier `name` set to
    make(x)."""
    return lambda x: validate_scenario(
        Scenario(ENV, Exponential(10.0), **{name: make(x)}))


# The values each kind of input must reject: a real that must be finite,
# a real that may be +inf (a reward past the float range needs an infinite
# delay), a count, and a real of either sign.
BAD = {
    "finite": (math.nan, -1, True, math.inf, -math.inf),
    "real": (math.nan, -1, True, -math.inf),
    "count": (math.nan, -1, True, math.inf, -math.inf, 2.5),
    "signed": (math.nan, True, math.inf, -math.inf),
}

# (the name the error must carry, the kind of input, a call of one public
# entry point with that input set to the argument)
ENTRIES = [
    # closed-form helpers
    ("delay", "finite", lambda x: expected_profit(x, 3.0, 0.05, 10.0)),
    ("speedup", "finite", lambda x: expected_profit(600.0, x, 0.05, 10.0)),
    ("cost_rate", "finite", lambda x: expected_profit(600.0, 3.0, x, 10.0)),
    ("reward", "real", lambda x: expected_profit(600.0, 3.0, 0.05, x)),
    ("speedup", "finite", lambda x: linear_threshold(x, 0.05, 10.0)),
    ("cost_rate", "finite", lambda x: linear_threshold(3.0, x, 10.0)),
    ("expected_reward", "real", lambda x: linear_threshold(3.0, 0.05, x)),
    ("speedup_max", "finite",
     lambda x: robust_interval_threshold(ParameterIntervals(x, 0.05, 10.0))),
    ("cost_min", "finite",
     lambda x: robust_interval_threshold(ParameterIntervals(3.0, x, 10.0))),
    ("reward_max", "real",
     lambda x: robust_interval_threshold(ParameterIntervals(3.0, 0.05, x))),
    ("mean_max", "real",
     lambda x: epsilon_robust_threshold(IV, MomentBounds(x, 5.0, 0.1))),
    ("std_max", "real",
     lambda x: epsilon_robust_threshold(IV, MomentBounds(10.0, x, 0.1))),
    ("epsilon", "finite",
     lambda x: epsilon_robust_threshold(IV, MomentBounds(10.0, 5.0, x))),
    ("speedup", "finite", lambda x: composition_threshold(x, 0.05, (1.0,))),
    ("protocol_means", "real",
     lambda x: composition_threshold(3.0, 0.05, (1.0, x))),
    ("prefix_means", "real", lambda x: multiround_threshold(3.0, 0.05, (x,))),
    ("speedup", "finite", lambda x: grinding_threshold(x, 0.05, 4, 20.0)),
    ("cost_rate", "finite", lambda x: grinding_threshold(3.0, x, 4, 20.0)),
    ("grinding_size", "count",
     lambda x: grinding_threshold(3.0, 0.05, x, 20.0)),
    ("expected_max_reward", "real",
     lambda x: grinding_threshold(3.0, 0.05, 4, x)),
    ("cost_exponent", "finite",
     lambda x: grinding_threshold(3.0, 0.05, 4, 20.0, x)),
    ("mean", "finite", lambda x: expected_max_exponential(x, 4)),
    ("draws", "count", lambda x: expected_max_exponential(10.0, x)),
    ("abort_probability", "finite",
     lambda x: abort_threshold(3.0, 0.05, 10.0, x)),
    ("expected_reward", "real", lambda x: abort_threshold(3.0, 0.05, x, 0.5)),
    ("cost_rate", "finite", lambda x: abort_threshold(3.0, x, 10.0, 0.5)),
    ("coalition_size", "count",
     lambda x: coalition_threshold(3.0, 0.05, x, 10.0)),
    ("expected_reward", "real",
     lambda x: coalition_threshold(3.0, 0.05, 2, x)),
    ("n", "count", harmonic_number),
    ("candidate_delay", "finite",
     lambda x: esdp(SCENARIO, candidate_delay=x)),
    # records
    ("speedup", "finite",
     _record(lambda x: EconomicEnvironment(x, 0.05, 1.0))),
    ("cost_rate", "finite",
     _record(lambda x: EconomicEnvironment(3.0, x, 1.0))),
    ("honest_delay", "finite",
     _record(lambda x: EconomicEnvironment(3.0, 0.05, x))),
    ("seed_time", "signed",
     _record(lambda x: EconomicEnvironment(3.0, 0.05, 1.0, x))),
    ("value", "finite", _record(Constant)),
    ("mean", "finite", _record(Exponential)),
    ("mean", "finite", _record(lambda x: Lognormal(x, 4.0))),
    ("variance", "finite", _record(lambda x: Lognormal(10.0, x))),
    ("samples", "finite", _record(lambda x: Empirical((1.0, x)))),
    ("max", "finite", _record(Bounded)),
    ("initial", "finite", _record(lambda x: MarkovOU(x, 10.0, 0.1, 2.0))),
    ("long_run_mean", "finite",
     _record(lambda x: MarkovOU(10.0, x, 0.1, 2.0))),
    ("reversion_rate", "finite",
     _record(lambda x: MarkovOU(10.0, 10.0, x, 2.0))),
    ("volatility", "finite",
     _record(lambda x: MarkovOU(10.0, 10.0, 0.1, x))),
    ("trials", "count", _record(lambda x: SimConfig(trials=x))),
    ("seed", "count", _record(lambda x: SimConfig(seed=x))),
    ("confidence", "finite", _record(lambda x: SimConfig(confidence=x))),
    # scenario modifiers
    ("abort_probability", "finite", _scenario("abort_probability")),
    ("protocol_means", "finite",
     _scenario("protocol_means", lambda x: (1.0, x))),
    ("grinding_size", "count", _scenario("grinding_size")),
    ("coalition_size", "count", _scenario("coalition_size")),
    ("players", "count", _scenario("players")),
    ("rounds", "count", _scenario("rounds")),
    ("grinding_cost_exponent", "finite",
     _scenario("grinding_cost_exponent")),
    # the attack game
    ("n", "count",
     lambda x: equilibrium_attack_probability(x, 10.0, 0.05, 150.0, 3.0)),
    ("expected_reward", "finite",
     lambda x: equilibrium_attack_probability(5, x, 0.05, 150.0, 3.0)),
    ("cost_rate", "finite",
     lambda x: equilibrium_attack_probability(5, 10.0, x, 150.0, 3.0)),
    ("delay", "finite",
     lambda x: equilibrium_attack_probability(5, 10.0, 0.05, x, 3.0)),
    ("speedup", "finite",
     lambda x: equilibrium_attack_probability(5, 10.0, 0.05, 150.0, x)),
    ("p", "finite", lambda x: conditional_inverse_expectation(5, x)),
    # simulation
    ("delay", "finite", lambda x: commit_profit_samples(SCENARIO, CFG, x)),
    ("delay", "finite",
     lambda x: estimate_tail_probability(SCENARIO, x, CFG)),
    ("mean", "finite", lambda x: grinding_max_oracle(x, 4, CFG)),
    ("draws", "count", lambda x: grinding_max_oracle(10.0, x, CFG)),
    # the grid, through solve
    ("time_step", "finite", lambda x: solve(CONSTANT_300, GridSpec(x))),
    ("reward_points", "count",
     lambda x: solve(CONSTANT_300, GridSpec(30.0, reward_points=x))),
    ("reward_max", "finite",
     lambda x: solve(CONSTANT_300, GridSpec(30.0, reward_max=x))),
    ("quadrature_nodes", "count",
     lambda x: solve(CONSTANT_300, GridSpec(30.0, quadrature_nodes=x))),
]


@pytest.mark.parametrize(
    "name, kind, call", ENTRIES,
    ids=[f"{i}-{name}" for i, (name, _, _) in enumerate(ENTRIES)])
@given(data=st.data())
def test_every_entry_point_rejects_out_of_range_inputs(name, kind, call,
                                                       data):
    value = data.draw(st.sampled_from(BAD[kind]), label="value")
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        call(value)


@pytest.mark.parametrize("call, name", [
    (lambda: linear_threshold(3, -0.05, 10), "cost_rate"),
    (lambda: grinding_threshold(3, 0.05, math.nan, 10), "grinding_size"),
    (lambda: coalition_threshold(3, 0.05, 2.5, 10), "coalition_size"),
    (lambda: robust_interval_threshold(
        ParameterIntervals(math.inf, 0.05, 10)), "speedup_max"),
    (lambda: check_violations(SimConfig(seed=2.5).violations()), "seed"),
    (lambda: solve(CONSTANT_300, GridSpec(30.0, reward_points=21.5)),
     "reward_points"),
])
def test_silently_wrong_answers_are_errors(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


@pytest.mark.parametrize("value, low, high, ends, words", [
    (0.5, 1.0, math.inf, "[)", "speedup must be finite and >= 1 (got 0.5)"),
    (0.0, 0.0, math.inf, "()", "speedup must be finite and > 0 (got 0.0)"),
    (-1.0, 0.0, math.inf, "[]", "speedup must be >= 0 (got -1.0)"),
    (math.inf, -math.inf, math.inf, "()",
     "speedup must be finite (got inf)"),
    (1.0, 0.0, 1.0, "[)", "speedup must be in [0, 1) (got 1.0)"),
    (0.0, 0.0, 1.0, "(]", "speedup must be in (0, 1] (got 0.0)"),
    (True, 1.0, math.inf, "[)", "speedup must be finite and >= 1 (got True)"),
])
def test_range_messages_keep_the_package_forms(value, low, high, ends,
                                               words):
    with pytest.raises(ValueError) as err:
        core.in_range(value, "speedup", low, high, ends)
    assert str(err.value) == words


def test_an_infinite_reward_needs_an_infinite_delay():
    assert linear_threshold(3.0, 0.05, math.inf) == math.inf
    assert composition_threshold(3.0, 0.05, (1.0, math.inf)) == math.inf


def test_sequence_messages_name_the_first_value_that_fails():
    with pytest.raises(ValueError, match=re.escape(
            "protocol_means must all be >= 0 (got -2.0)")):
        composition_threshold(3.0, 0.05, (1.0, -2.0, math.nan))
