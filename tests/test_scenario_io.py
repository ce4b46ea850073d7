from dataclasses import fields

import numpy as np
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
    RewardModel,
    Scenario,
)
from esdp.scenario_io import (
    _LIST_KEYS,
    _REWARD_KEYS,
    ScenarioParseError,
    parse_scenario_text,
    serialize_scenario,
)

BASELINE_TEXT = """
# baseline: factor-3 speedup at cloud prices
env.speedup = 3.0
env.cost_rate = 0.05
env.honest_delay = 600.0
reward.kind = constant
reward.value = 10.0
"""


def test_parse_baseline():
    scenario = parse_scenario_text(BASELINE_TEXT)
    assert scenario.env == EconomicEnvironment(3.0, 0.05, 600.0, 0.0)
    assert scenario.reward == Constant(10.0)
    assert scenario.grinding_size == 1
    assert scenario.abort_probability == 0.0
    assert scenario.protocol_means == ()
    assert scenario.rounds == 1


def test_parse_full_scenario():
    text = """
    env.speedup = 2.5
    env.cost_rate = 0.01
    env.honest_delay = 1200
    env.seed_time = 5
    reward.kind = lognormal
    reward.mean = 10.0
    reward.variance = 25.0
    grinding_size = 4
    abort_probability = 0.25
    protocol_means = 10.0, 50, 100.0
    coalition_size = 2
    players = 8
    rounds = 3
    grinding_cost_exponent = 0.5
    """
    scenario = parse_scenario_text(text)
    assert scenario.reward == Lognormal(10.0, 25.0)
    assert scenario.protocol_means == (10.0, 50.0, 100.0)
    assert scenario.grinding_size == 4
    assert scenario.players == 8
    assert scenario.env.seed_time == 5.0


@pytest.mark.parametrize("reward", [
    Constant(10.0),
    Exponential(12.5),
    Lognormal(10.0, 25.0),
    Empirical((1.0, 2.5, 9.0)),
    Bounded(100.0),
    MarkovOU(10.0, 12.0, 0.1, 2.0),
])
def test_round_trip_identity(reward):
    scenario = Scenario(
        env=EconomicEnvironment(3.0, 0.05, 600.0, 1.5),
        reward=reward,
        grinding_size=3,
        abort_probability=0.125,
        protocol_means=(4.0, 7.5),
        coalition_size=2,
        players=5,
        rounds=2,
        grinding_cost_exponent=0.5,
    )
    text = serialize_scenario(scenario)
    parsed = parse_scenario_text(text)
    assert parsed == scenario
    assert serialize_scenario(parsed) == text


def test_round_trip_preserves_awkward_floats():
    scenario = Scenario(
        env=EconomicEnvironment(1.1, 0.0123456789012345678, 601.7),
        reward=Exponential(0.1 + 0.2),
    )
    assert parse_scenario_text(serialize_scenario(scenario)) == scenario


def test_count_integer_literal_is_exact():
    scenario = parse_scenario_text(
        BASELINE_TEXT + "grinding_size = 9007199254740993\n")
    assert scenario.grinding_size == 2 ** 53 + 1
    assert parse_scenario_text(serialize_scenario(scenario)) == scenario


@pytest.mark.parametrize("raw, count", [("3.0", 3), ("1e3", 1000)])
def test_count_notations(raw, count):
    scenario = parse_scenario_text(BASELINE_TEXT + f"players = {raw}\n")
    assert scenario.players == count


def test_round_trip_numpy_scalars():
    scenario = Scenario(EconomicEnvironment(np.float64(3.0), 0.05, 600.0),
                        Exponential(np.float64(4.0)))
    text = serialize_scenario(scenario)
    assert "env.speedup = 3.0\n" in text
    assert parse_scenario_text(text) == scenario


def test_reward_table_covers_every_model():
    models = {cls for cls in vars(core).values() if isinstance(cls, type)
              and issubclass(cls, RewardModel) and cls is not RewardModel}
    assert set(_REWARD_KEYS) == models
    for cls, keys in _REWARD_KEYS.items():
        assert len(set(keys)) == len(keys) == len(fields(cls))


def test_unknown_reward_type_cannot_serialize():
    class Uniform(Constant):
        kind = "uniform"

    with pytest.raises(ScenarioParseError, match="kind 'uniform'"):
        serialize_scenario(Scenario(EconomicEnvironment(3.0, 0.05, 600.0),
                                    Uniform(1.0)))


# any finite float, subnormals and both zeros included
_floats = st.floats(allow_nan=False, allow_infinity=False)
# integer literals are read exactly, well past the 2**53 a float holds
_counts = st.integers(-2 ** 64, 2 ** 64)


@st.composite
def _rewards(draw):
    cls, keys = draw(st.sampled_from(list(_REWARD_KEYS.items())))
    return cls(*(tuple(draw(st.lists(_floats, min_size=1, max_size=50)))
                 if f"reward.{key}" in _LIST_KEYS else draw(_floats)
                 for key in keys))


@given(env=st.builds(EconomicEnvironment, _floats, _floats, _floats, _floats),
       reward=_rewards(), grinding_size=_counts, abort=_floats,
       means=st.lists(_floats, max_size=5), coalition=_counts,
       players=_counts, rounds=_counts, exponent=_floats)
def test_round_trip_property(env, reward, grinding_size, abort, means,
                             coalition, players, rounds, exponent):
    scenario = Scenario(env, reward, grinding_size, abort, tuple(means),
                        coalition, players, rounds, exponent)
    text = serialize_scenario(scenario)
    assert parse_scenario_text(text) == scenario
    assert serialize_scenario(parse_scenario_text(text)) == text


class TestParseErrors:
    def test_missing_equals(self):
        with pytest.raises(ScenarioParseError, match="line 1"):
            parse_scenario_text("env.speedup 3.0")

    def test_duplicate_key(self):
        text = BASELINE_TEXT + "env.speedup = 4.0\n"
        with pytest.raises(ScenarioParseError, match="duplicate"):
            parse_scenario_text(text)

    def test_unknown_key(self):
        text = BASELINE_TEXT + "env.bandwidth = 4.0\n"
        with pytest.raises(ScenarioParseError, match="unknown keys"):
            parse_scenario_text(text)

    def test_missing_required_key(self):
        with pytest.raises(ScenarioParseError, match="env.honest_delay"):
            parse_scenario_text("env.speedup = 3.0\nenv.cost_rate = 0.05\n"
                                "reward.kind = constant\nreward.value = 1\n")

    def test_empty_text(self):
        with pytest.raises(ScenarioParseError, match="missing required"):
            parse_scenario_text("")

    def test_bad_number(self):
        with pytest.raises(ScenarioParseError, match="expected a number"):
            parse_scenario_text(BASELINE_TEXT.replace("3.0", "fast"))

    def test_fractional_count(self):
        text = BASELINE_TEXT + "players = 2.5\n"
        with pytest.raises(ScenarioParseError, match="integer"):
            parse_scenario_text(text)

    def test_count_past_float_precision_needs_integer_literal(self):
        text = BASELINE_TEXT + "grinding_size = 9007199254740993.0\n"
        with pytest.raises(ScenarioParseError,
                           match="grinding_size: .* not exact as a float"):
            parse_scenario_text(text)

    def test_unknown_reward_kind(self):
        text = BASELINE_TEXT.replace("constant", "uniform")
        with pytest.raises(ScenarioParseError, match="unknown kind"):
            parse_scenario_text(text)

    def test_missing_reward_parameter(self):
        text = BASELINE_TEXT.replace("reward.value = 10.0", "")
        with pytest.raises(ScenarioParseError, match="reward.value"):
            parse_scenario_text(text)

    def test_empty_list(self):
        text = BASELINE_TEXT + "protocol_means =\n"
        with pytest.raises(ScenarioParseError, match="comma-separated"):
            parse_scenario_text(text)

    def test_parse_does_not_validate(self):
        # invariants are the validator's job, not the parser's
        scenario = parse_scenario_text(BASELINE_TEXT.replace(
            "env.speedup = 3.0", "env.speedup = 0.5"))
        assert scenario.env.speedup == 0.5
