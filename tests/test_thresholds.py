import itertools
import math
import time

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
    multiround_threshold_subsets,
    robust_interval_threshold,
)


class TestExpectedProfit:
    def test_break_even_at_600(self):
        assert expected_profit(600.0, 3.0, 0.05, 10.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_zero_delay_returns_reward(self):
        assert expected_profit(0.0, 3.0, 0.05, 10.0) == 10.0
        assert expected_profit(0.0, 7.0, 0.3, 10.0) == 10.0

    def test_double_delay_loses_the_reward_again(self):
        # 10 - (0.05/3)*1200 = -10
        assert expected_profit(1200.0, 3.0, 0.05, 10.0) == pytest.approx(
            -10.0, rel=1e-12)


class TestLinearThreshold:
    def test_case_study_values_exact(self):
        assert linear_threshold(3.0, 0.05, 10.0) == 600.0
        assert linear_threshold(3.0, 0.05, 50.0) == 3000.0
        assert linear_threshold(3.0, 0.05, 100.0) == 6000.0

    def test_zero_reward_needs_no_delay(self):
        assert linear_threshold(3.0, 0.05, 0.0) == 0.0

    def test_security_dichotomy(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            speedup = rng.uniform(1.0, 10.0)
            cost = rng.uniform(0.001, 1.0)
            reward = rng.uniform(0.01, 1000.0)
            t_star = linear_threshold(speedup, cost, reward)
            # strictly off the knife edge the iff is unambiguous
            for factor in (1 + 1e-9, 1.5, 10.0):
                assert expected_profit(t_star * factor, speedup, cost,
                                       reward) <= 0.0
            for factor in (1 - 1e-9, 0.5, 0.01):
                assert expected_profit(t_star * factor, speedup, cost,
                                       reward) > 0.0
            assert abs(expected_profit(t_star, speedup, cost,
                                       reward)) <= 1e-9 * reward

    def test_homogeneous_scaling_is_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            speedup = rng.uniform(1.0, 8.0)
            cost = rng.uniform(0.001, 2.0)
            reward = rng.uniform(0.0, 500.0)
            base = linear_threshold(speedup, cost, reward)
            assert linear_threshold(speedup, cost, 2 * reward) == 2 * base
            assert linear_threshold(2 * speedup, cost, reward) == 2 * base
            assert linear_threshold(speedup, cost / 2, reward) == 2 * base


class TestRobustBounds:
    def test_interval_bound_values(self):
        assert robust_interval_threshold(
            ParameterIntervals(3.0, 0.05, 100.0)) == 6000.0
        assert robust_interval_threshold(
            ParameterIntervals(3.0, 0.05, 0.0)) == 0.0
        assert robust_interval_threshold(
            ParameterIntervals(2.5, 0.00046, 50.0)) == pytest.approx(
                271_739.0, abs=1.0)

    def test_epsilon_robust_hand_values(self):
        iv = ParameterIntervals(3.0, 0.05, 0.0)
        # 60 * (10 + 5/sqrt(0.01)) = 60 * 60
        assert epsilon_robust_threshold(
            iv, MomentBounds(10.0, 5.0, 0.01)) == pytest.approx(3600.0,
                                                                rel=1e-12)
        # 60 * (10 + 5) at epsilon = 1
        assert epsilon_robust_threshold(
            iv, MomentBounds(10.0, 5.0, 1.0)) == pytest.approx(900.0,
                                                               rel=1e-12)

    def test_degenerate_distribution_reduces_to_linear(self):
        iv = ParameterIntervals(3.0, 0.05, 0.0)
        assert epsilon_robust_threshold(
            iv, MomentBounds(10.0, 0.0, 0.37)) == linear_threshold(
                3.0, 0.05, 10.0)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            epsilon_robust_threshold(ParameterIntervals(3.0, 0.05, 0.0),
                                     MomentBounds(10.0, 5.0, 0.0))

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError, match="cost_min"):
            robust_interval_threshold(ParameterIntervals(3.0, 0.0, 10.0))


class TestComposition:
    def test_hand_values(self):
        assert composition_threshold(3.0, 0.05, (10.0, 50.0, 100.0)) == \
            pytest.approx(9600.0, rel=1e-12)

    def test_single_protocol_reduces_to_linear(self):
        assert composition_threshold(3.0, 0.05, (10.0,)) == \
            linear_threshold(3.0, 0.05, 10.0)

    def test_overflowing_sum_needs_an_infinite_delay(self, baseline_env):
        assert composition_threshold(3.0, 0.05, (1e308, 1e308)) == math.inf
        scenario = Scenario(baseline_env, Exponential(10.0),
                            protocol_means=(1e308, 1e308))
        report = esdp(scenario, candidate_delay=600.0)
        assert report.required_delays == {"linear": 600.0,
                                          "composition": math.inf}
        assert report.binding_condition == "composition"
        assert report.secure is False

    def test_empty_means_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            composition_threshold(3.0, 0.05, ())


class TestMultiround:
    def test_iid_reduces_to_single_round(self):
        prefix = [10.0 * k for k in range(1, 6)]
        assert multiround_threshold(3.0, 0.05, prefix) == \
            linear_threshold(3.0, 0.05, 10.0)

    def test_front_loaded_prefix(self):
        # max over k of prefix[k-1]/k computed by hand: 100, 55, 40
        assert multiround_threshold(3.0, 0.05, (100.0, 110.0, 120.0)) == \
            pytest.approx(6000.0, rel=1e-12)

    def test_single_round(self):
        assert multiround_threshold(3.0, 0.05, (10.0,)) == \
            linear_threshold(3.0, 0.05, 10.0)

    def test_decreasing_prefix_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            multiround_threshold(3.0, 0.05, (10.0, 9.0))

    def test_subset_variant_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 11))
            means = list(rng.uniform(0.0, 50.0, n))
            best = max(sum(subset) / len(subset)
                       for size in range(1, n + 1)
                       for subset in itertools.combinations(means, size))
            assert multiround_threshold_subsets(3.0, 0.05, means) == \
                pytest.approx(3.0 / 0.05 * best, rel=1e-12)

    def test_subset_variant_overflowing_sum_needs_an_infinite_delay(self):
        assert multiround_threshold_subsets(3.0, 0.05, (1e308, 1e308)) == \
            math.inf

    @pytest.mark.parametrize("helper, means", [
        (composition_threshold, (math.nan, 1.0)),
        (composition_threshold, (1.0, math.nan)),
        (multiround_threshold, (math.nan, 1.0)),
        (multiround_threshold, (1.0, math.nan)),
        (multiround_threshold, (-1.0, 0.0)),
        (multiround_threshold_subsets, (math.nan, 1.0)),
        (multiround_threshold_subsets, (1.0, math.nan)),
    ])
    def test_nan_or_negative_mean_rejected(self, helper, means):
        with pytest.raises(ValueError, match="must all be >= 0"):
            helper(3.0, 0.05, means)

    def test_subset_variant_dominates_prefix_for_back_loaded_rewards(self):
        means = [1.0, 2.0, 30.0]
        prefix = list(np.cumsum(means))
        assert multiround_threshold_subsets(3.0, 0.05, means) > \
            multiround_threshold(3.0, 0.05, prefix)

    @given(speedup=st.floats(1.0, 1e6), cost=st.floats(1e-6, 1e3),
           delay=st.floats(1e-3, 1e9),
           reward=st.one_of(st.builds(Constant, st.floats(0.0, 1e9)),
                            st.builds(Exponential, st.floats(0.0, 1e9)),
                            st.builds(Bounded, st.floats(0.0, 1e9))),
           rounds=st.integers(2, 10 ** 18), grinding=st.integers(1, 64),
           abort=st.floats(0.0, 0.99), coalition=st.integers(1, 100),
           means=st.lists(st.floats(0.0, 1e9), max_size=3))
    def test_rounds_repeat_the_linear_row(self, speedup, cost, delay, reward,
                                          rounds, grinding, abort, coalition,
                                          means):
        scenario = Scenario(EconomicEnvironment(speedup, cost, delay), reward,
                            grinding_size=grinding, abort_probability=abort,
                            protocol_means=tuple(means),
                            coalition_size=coalition, rounds=rounds)
        report = esdp(scenario)
        assert report.required_delays["multiround"] == \
            report.required_delays["linear"]
        assert report.binding_condition != "multiround"

    def test_round_count_costs_nothing(self, baseline_env):
        scenario = Scenario(baseline_env, Exponential(10.0), rounds=10 ** 18)
        start = time.perf_counter()
        report = esdp(scenario)
        assert time.perf_counter() - start < 0.05
        assert report.required_delays["multiround"] == 600.0


class TestGrinding:
    def test_reduces_to_linear_at_one_seed(self):
        for alpha in (0.0, 0.5, 1.0):
            assert grinding_threshold(3.0, 0.05, 1, 10.0, alpha) == \
                linear_threshold(3.0, 0.05, 10.0)

    def test_sublinear_cost_hand_value(self):
        e_max = expected_max_exponential(10.0, 4)
        assert grinding_threshold(3.0, 0.05, 4, e_max, 0.5) == \
            pytest.approx(625.0, rel=1e-12)

    def test_parallel_cost_hand_value(self):
        e_max = expected_max_exponential(10.0, 4)
        assert grinding_threshold(3.0, 0.05, 4, e_max, 1.0) == \
            pytest.approx(312.5, rel=1e-12)

    def test_expected_max_exponential_harmonic(self):
        assert expected_max_exponential(10.0, 1) == 10.0
        assert expected_max_exponential(10.0, 4) == pytest.approx(
            10.0 * 25.0 / 12.0, rel=1e-15)
        assert expected_max_exponential(0.0, 123) == 0.0

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -1.0])
    def test_expected_max_exponential_rejects_bad_means(self, mean):
        with pytest.raises(ValueError, match="mean must be finite and >= 0"):
            expected_max_exponential(mean, 3)

    def test_expected_max_exponential_monte_carlo_oracle(self):
        rng = np.random.default_rng(41)
        maxima = rng.exponential(10.0, (1_000_000, 4)).max(axis=1)
        se = maxima.std(ddof=1) / math.sqrt(maxima.size)
        assert expected_max_exponential(10.0, 4) == pytest.approx(
            maxima.mean(), abs=3 * se)

    def test_heavy_tailed_lognormal_grinding_is_insecure(self, baseline_env):
        # variance/mean^2 = 100: E[max of 16 draws] = 103.07 USD, so grinding
        # needs 3 / (0.05 * sqrt(16)) * 103.07 = 1546 s, far above 700 s
        scenario = Scenario(baseline_env, Lognormal(10.0, 1e4),
                            grinding_size=16, grinding_cost_exponent=0.5)
        report = esdp(scenario, candidate_delay=700.0)
        assert report.required_delays["grinding"] == pytest.approx(
            1546.0548, rel=1e-6)
        assert report.binding_condition == "grinding"
        assert report.secure is False

    def test_unconverged_quadrature_names_the_condition(self, baseline_env,
                                                        monkeypatch):
        monkeypatch.setattr(core, "_MAX_SPLITS", 0)
        scenario = Scenario(baseline_env, Lognormal(10.0, 1e4),
                            grinding_size=1024)
        with pytest.raises(ValueError,
                           match="^grinding: quadrature did not converge"):
            esdp(scenario)


class TestAbort:
    def test_no_leverage_reduces_to_linear(self):
        assert abort_threshold(3.0, 0.05, 10.0, 0.0) == \
            linear_threshold(3.0, 0.05, 10.0)

    def test_hand_values(self):
        assert abort_threshold(3.0, 0.05, 10.0, 0.5) == pytest.approx(
            1200.0, rel=1e-12)
        assert abort_threshold(3.0, 0.05, 10.0, 0.9) == pytest.approx(
            6000.0, rel=1e-12)

    def test_certain_leverage_rejected(self):
        with pytest.raises(ValueError, match="abort_probability"):
            abort_threshold(3.0, 0.05, 10.0, 1.0)


class TestCoalition:
    def test_single_member_reduces_to_linear(self):
        assert coalition_threshold(3.0, 0.05, 1, 10.0) == \
            linear_threshold(3.0, 0.05, 10.0)

    def test_ten_members_need_ten_times_the_delay(self):
        assert coalition_threshold(3.0, 0.05, 10, 10.0) == pytest.approx(
            6000.0, rel=1e-12)

    def test_zero_reward(self):
        assert coalition_threshold(3.0, 0.05, 2, 0.0) == 0.0


def test_monotonicity_in_every_argument():
    rng = np.random.default_rng(31)
    for _ in range(150):
        speedup = rng.uniform(1.0, 8.0)
        cost = rng.uniform(0.01, 2.0)
        reward = rng.uniform(0.0, 200.0)
        p = rng.uniform(0.0, 0.95)
        m = int(rng.integers(1, 12))
        g = int(rng.integers(1, 64))
        bump = 1.0 + rng.uniform(0.01, 1.0)

        assert linear_threshold(speedup * bump, cost, reward) >= \
            linear_threshold(speedup, cost, reward)
        assert linear_threshold(speedup, cost * bump, reward) <= \
            linear_threshold(speedup, cost, reward)
        assert linear_threshold(speedup, cost, reward * bump) >= \
            linear_threshold(speedup, cost, reward)
        assert abort_threshold(speedup, cost, reward, min(0.99, p * bump)) >= \
            abort_threshold(speedup, cost, reward, p)
        assert coalition_threshold(speedup, cost, m + 1, reward) >= \
            coalition_threshold(speedup, cost, m, reward)
        # grinding monotonicity via the reward channel: E[V_max] grows with G
        assert grinding_threshold(
            speedup, cost, g + 1, expected_max_exponential(reward, g + 1),
            0.0) >= grinding_threshold(
                speedup, cost, g, expected_max_exponential(reward, g), 0.0)


# every reward kind, with laws the checked quadrature converges on
REWARDS = st.one_of(
    st.builds(Constant, st.floats(0.0, 1e9)),
    st.builds(Exponential, st.floats(0.0, 1e9)),
    st.tuples(st.floats(1e-3, 1e6), st.floats(1e-3, 1e4)).map(
        lambda mr: Lognormal(mr[0], mr[0] ** 2 * mr[1])),
    st.builds(Empirical, st.lists(st.floats(0.0, 1e9), min_size=1,
                                  max_size=5).map(tuple)),
    st.builds(Bounded, st.floats(0.0, 1e9)),
    st.builds(MarkovOU, st.floats(0.0, 100.0), st.floats(0.0, 100.0),
              st.floats(1e-3, 1.0), st.floats(0.0, 10.0)),
)


@given(speedup=st.floats(1.0, 1e6), cost=st.floats(1e-6, 1e3),
       delay=st.floats(1e-3, 1e9), reward=REWARDS,
       grinding=st.integers(1, 64), exponent=st.floats(0.0, 1.0),
       abort=st.floats(0.0, 0.99), coalition=st.integers(1, 100),
       means=st.lists(st.floats(0.0, 1e9), max_size=3),
       rounds=st.integers(1, 10))
def test_rows_equal_their_helper_and_the_written_out_bound(
        speedup, cost, delay, reward, grinding, exponent, abort, coalition,
        means, rounds):
    s, c, g, e, p, m = speedup, cost, grinding, exponent, abort, coalition
    report = esdp(Scenario(EconomicEnvironment(s, c, delay), reward,
                           grinding_size=g, abort_probability=p,
                           protocol_means=tuple(means), coalition_size=m,
                           rounds=rounds, grinding_cost_exponent=e))
    mean = reward.mean(horizon=delay)
    # name, active, the bound written out, the public helper
    rows = [
        ("linear", True, lambda: s / c * mean,
         lambda: linear_threshold(s, c, mean)),
        ("grinding", g > 1,
         lambda: s / (c * g ** e) * reward.expected_max(g, horizon=delay),
         lambda: grinding_threshold(
             s, c, g, reward.expected_max(g, horizon=delay), e)),
        ("abort", p > 0.0, lambda: s / c * mean / (1 - p),
         lambda: abort_threshold(s, c, mean, p)),
        ("coalition", m > 1, lambda: s * m / c * mean,
         lambda: coalition_threshold(s, c, m, mean)),
        ("composition", bool(means), lambda: s / c * math.fsum(means),
         lambda: composition_threshold(s, c, means)),
        ("multiround", rounds > 1, lambda: s / c * mean,
         lambda: multiround_threshold(s, c, (mean,))),
    ]
    active = [row for row in rows if row[1]]
    assert list(report.required_delays) == [row[0] for row in active]
    for name, _, written_out, helper in active:
        assert report.required_delays[name] == written_out() == helper(), name


class TestReportAggregation:
    def test_baseline_binding_is_linear(self, baseline_scenario):
        report = esdp(baseline_scenario)
        assert report.esdp == 600.0
        assert report.binding_condition == "linear"
        assert set(report.required_delays) == {"linear"}

    def test_abort_becomes_binding(self, baseline_env):
        scenario = Scenario(baseline_env, Constant(10.0),
                            abort_probability=0.5)
        report = esdp(scenario)
        assert report.esdp == pytest.approx(1200.0, rel=1e-12)
        assert report.binding_condition == "abort"
        assert report.required_delays["linear"] == 600.0

    def test_coalition_becomes_binding(self, baseline_env):
        scenario = Scenario(baseline_env, Constant(10.0), coalition_size=10)
        report = esdp(scenario)
        assert report.esdp == pytest.approx(6000.0, rel=1e-12)
        assert report.binding_condition == "coalition"

    def test_esdp_equals_max_of_conditions(self, baseline_env):
        scenario = Scenario(baseline_env, Exponential(10.0),
                            grinding_size=4,
                            abort_probability=0.3,
                            protocol_means=(10.0, 25.0),
                            coalition_size=3,
                            rounds=4,
                            grinding_cost_exponent=0.5)
        report = esdp(scenario)
        assert set(report.required_delays) == {
            "linear", "grinding", "abort", "coalition", "composition",
            "multiround"}
        assert report.esdp == max(report.required_delays.values())
        assert report.required_delays[report.binding_condition] == report.esdp

    def test_verdict_secure_at_exact_equality(self, baseline_scenario):
        report = esdp(baseline_scenario, candidate_delay=600.0)
        assert report.secure is True
        report = esdp(baseline_scenario, candidate_delay=599.999)
        assert report.secure is False
        assert report.evaluated_delay == 599.999

    def test_markov_reward_uses_horizon_moments(self, baseline_env):
        scenario = Scenario(baseline_env, MarkovOU(20.0, 10.0, 0.1, 2.0))
        report = esdp(scenario)
        expected = 60.0 * (10.0 + 10.0 * math.exp(-0.1 * 600.0))
        assert report.required_delays["linear"] == pytest.approx(expected)

    def test_condition_errors_carry_the_condition_name(self, baseline_env):
        class Broken(RewardModel):
            kind = "broken"

            def mean(self, horizon=None):
                return 10.0

            def expected_max(self, draws, horizon=None):
                raise RuntimeError("no order statistics here")

        scenario = Scenario(baseline_env, Broken(), grinding_size=3)
        with pytest.raises(ValueError, match="grinding:"):
            esdp(scenario)
