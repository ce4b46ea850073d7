import math

import numpy as np
import pytest

from esdp.core import (
    Constant,
    DEFAULT_OU_REWARD,
    EconomicEnvironment,
    Exponential,
    Lognormal,
    MarkovOU,
    Scenario,
)
from esdp.equilibrium import conditional_inverse_expectation
from esdp.montecarlo import (
    SimConfig,
    commit_profit_samples,
    equilibrium_empirical_check,
    estimate_tail_probability,
    grinding_max_oracle,
    profit_estimate,
    rollout_policy,
    simulate_reward_path,
    write_trials_csv,
)
from esdp.stopping import GridSpec, initial_value, solve
from esdp.thresholds import epsilon_robust_threshold, expected_max_exponential
from esdp.thresholds import MomentBounds, ParameterIntervals


class TestDeterminism:
    def test_identical_seed_identical_paths(self):
        cfg = SimConfig(trials=5000, time_step=0.5, seed=99)
        a = simulate_reward_path(DEFAULT_OU_REWARD, 20.0, cfg)
        b = simulate_reward_path(DEFAULT_OU_REWARD, 20.0, cfg)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = simulate_reward_path(DEFAULT_OU_REWARD, 20.0,
                                 SimConfig(trials=100, seed=1))
        b = simulate_reward_path(DEFAULT_OU_REWARD, 20.0,
                                 SimConfig(trials=100, seed=2))
        assert not np.array_equal(a, b)

    def test_commit_samples_reproducible(self, baseline_env):
        scenario = Scenario(baseline_env, Exponential(10.0))
        cfg = SimConfig(trials=20_000, seed=314)
        first = commit_profit_samples(scenario, cfg)
        second = commit_profit_samples(scenario, cfg)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    def test_trial_count_extends_the_stream(self, baseline_env):
        # block-wise substreams: a longer run starts with the shorter one
        scenario = Scenario(baseline_env, Exponential(10.0))
        short = commit_profit_samples(scenario, SimConfig(trials=1000,
                                                          seed=7))[0]
        long = commit_profit_samples(scenario, SimConfig(trials=9000,
                                                         seed=7))[0]
        assert np.array_equal(short, long[:1000])


class TestRewardPaths:
    def test_constant_path_is_flat(self):
        cfg = SimConfig(trials=3, time_step=1.0, seed=0)
        paths = simulate_reward_path(Constant(10.0), 600.0, cfg)
        assert paths.shape == (3, 601)
        assert np.all(paths == 10.0)

    def test_degenerate_diffusion_pins_the_path(self):
        model = MarkovOU(10.0, 10.0, 1e6, 1e-9)
        paths = simulate_reward_path(model, 10.0,
                                     SimConfig(trials=10, time_step=1.0,
                                               seed=3))
        assert np.abs(paths - 10.0).max() < 1e-6

    def test_ou_terminal_moments_match_closed_form(self):
        model = MarkovOU(10.0, 10.0, 0.01, 2.0)
        horizon = 2.0
        cfg = SimConfig(trials=100_000, time_step=0.05, seed=8)
        paths = simulate_reward_path(model, horizon, cfg)
        terminal = paths[:, -1]
        mean_expected = model.transition_mean(10.0, horizon)
        var_expected = model.transition_std(horizon) ** 2
        se = terminal.std(ddof=1) / math.sqrt(terminal.size)
        assert terminal.mean() == pytest.approx(mean_expected, abs=3 * se)
        assert terminal.var(ddof=1) == pytest.approx(
            var_expected, rel=4 * math.sqrt(2.0 / terminal.size) + 1e-3)

    def test_distribution_models_return_single_terminal_draw(self):
        cfg = SimConfig(trials=50, seed=4)
        draws = simulate_reward_path(Exponential(10.0), 600.0, cfg)
        assert draws.shape == (50, 1)
        assert np.all(draws >= 0.0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            simulate_reward_path(Constant(1.0), 0.0, SimConfig(trials=1))

    def test_paths_stay_nonnegative(self):
        model = MarkovOU(0.5, 0.5, 0.05, 3.0)  # heavy reflection regime
        paths = simulate_reward_path(model, 50.0,
                                     SimConfig(trials=2000, time_step=1.0,
                                               seed=12))
        assert paths.min() >= 0.0


class TestCommitProfits:
    def test_break_even_scenario(self, baseline_scenario):
        profits, successes, stops = commit_profit_samples(
            baseline_scenario, SimConfig(trials=100, seed=0))
        assert np.allclose(profits, 0.0, atol=1e-12)
        assert successes.all()
        assert np.all(stops == 200.0)

    def test_unit_speedup_always_fails(self):
        env = EconomicEnvironment(1.0, 0.05, 100.0)
        profits, successes, _ = commit_profit_samples(
            Scenario(env, Constant(50.0)), SimConfig(trials=10, seed=0))
        assert not successes.any()
        assert np.allclose(profits, -5.0)

    def test_profit_estimate_summary(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(5.0, 2.0, 40_000)
        est = profit_estimate(samples, 0.99)
        assert est.mean == pytest.approx(5.0, abs=0.05)
        low, high = est.confidence_interval
        assert low <= est.mean <= high
        assert est.positive_profit_fraction == pytest.approx(0.9938, abs=0.01)


class TestRollout:
    def test_constant_profitable_delay(self):
        env = EconomicEnvironment(3.0, 0.05, 300.0)
        scenario = Scenario(env, Constant(10.0))
        vg, pg = solve(scenario, GridSpec(time_step=1.0, reward_points=101))
        est = rollout_policy(pg, scenario, SimConfig(trials=2000, seed=21))
        # zero-variance trials: allow only float accumulation noise
        assert est.mean == pytest.approx(initial_value(vg, 10.0), abs=1e-9)
        assert est.std_error <= 1e-15
        assert est.positive_profit_fraction == 1.0

    def test_constant_unprofitable_delay_never_computes(self):
        env = EconomicEnvironment(3.0, 0.05, 1200.0)
        scenario = Scenario(env, Constant(10.0))
        _, pg = solve(scenario, GridSpec(time_step=2.0, reward_points=51))
        est = rollout_policy(pg, scenario, SimConfig(trials=500, seed=2))
        assert est.mean == 0.0
        assert est.positive_profit_fraction == 0.0

    def test_ou_agreement_with_dp(self):
        env = EconomicEnvironment(3.0, 0.05, 120.0)
        scenario = Scenario(env, DEFAULT_OU_REWARD)
        vg, pg = solve(scenario, GridSpec(time_step=1.0, reward_points=641,
                                          reward_max=32.0,
                                          quadrature_nodes=15))
        est = rollout_policy(pg, scenario, SimConfig(trials=20_000, seed=2))
        low, high = est.confidence_interval
        assert low <= initial_value(vg, 10.0) <= high

    def test_profit_floor(self):
        env = EconomicEnvironment(3.0, 0.05, 60.0)
        scenario = Scenario(env, DEFAULT_OU_REWARD)
        _, pg = solve(scenario, GridSpec(time_step=1.0, reward_points=81,
                                         reward_max=32.0))
        est = rollout_policy(pg, scenario, SimConfig(trials=5000, seed=5))
        worst = env.cost_rate * env.honest_delay / env.speedup
        assert est.mean >= -worst - 1e-9

    def test_scenario_mismatch_rejected(self, baseline_scenario):
        vg, pg = solve(baseline_scenario, GridSpec(time_step=5.0,
                                                   reward_points=21))
        other = Scenario(baseline_scenario.env, Constant(11.0))
        with pytest.raises(ValueError, match="different scenario"):
            rollout_policy(pg, other, SimConfig(trials=10))


class TestTailProbability:
    def test_break_even_profit_never_positive(self, baseline_scenario):
        est = estimate_tail_probability(baseline_scenario, 600.0,
                                        SimConfig(trials=5000, seed=1))
        assert est.fraction == 0.0

    def test_just_below_break_even_always_positive(self, baseline_scenario):
        est = estimate_tail_probability(baseline_scenario, 599.0,
                                        SimConfig(trials=5000, seed=1))
        assert est.fraction == 1.0

    def test_chebyshev_guarantee_lognormal(self, baseline_env):
        epsilon = 0.01
        delay = epsilon_robust_threshold(
            ParameterIntervals(3.0, 0.05, 0.0),
            MomentBounds(10.0, 5.0, epsilon))
        scenario = Scenario(baseline_env, Lognormal(10.0, 25.0))
        est = estimate_tail_probability(scenario, delay,
                                        SimConfig(trials=100_000, seed=6))
        assert est.confidence_interval[1] <= epsilon


class TestOracles:
    def test_grinding_oracle_single_draw(self):
        est = grinding_max_oracle(10.0, 1, SimConfig(trials=100_000, seed=9))
        assert est.value == pytest.approx(10.0, abs=3 * est.std_error)

    def test_grinding_oracle_matches_harmonic_form(self):
        est = grinding_max_oracle(10.0, 4, SimConfig(trials=200_000, seed=10))
        assert est.value == pytest.approx(expected_max_exponential(10.0, 4),
                                          abs=3 * est.std_error)

    def test_grinding_oracle_zero_mean(self):
        est = grinding_max_oracle(0.0, 5, SimConfig(trials=100, seed=0))
        assert est.value == 0.0

    def test_equilibrium_check_single_player_exact(self):
        est = equilibrium_empirical_check(1, 0.5,
                                          SimConfig(trials=10_000, seed=3))
        assert est.value == 1.0
        assert est.std_error == 0.0
        assert not est.insufficient_data

    def test_equilibrium_check_matches_hand_formula(self):
        p = 2.0 / 3.0
        est = equilibrium_empirical_check(2, p,
                                          SimConfig(trials=200_000, seed=14))
        assert est.value == pytest.approx(0.75, abs=3 * est.std_error)

    def test_equilibrium_check_matches_exact_solver(self):
        est = equilibrium_empirical_check(20, 0.3,
                                          SimConfig(trials=200_000, seed=15))
        exact = conditional_inverse_expectation(20, 0.3)
        assert est.value == pytest.approx(exact, abs=3 * est.std_error)

    def test_equilibrium_check_insufficient_data(self):
        est = equilibrium_empirical_check(3, 1e-12,
                                          SimConfig(trials=1000, seed=16))
        assert est.insufficient_data
        assert est.value is None
        assert est.effective_trials == 0


class TestConfigValidation:
    def test_zero_trials_rejected(self, baseline_scenario):
        with pytest.raises(ValueError, match="trials"):
            commit_profit_samples(baseline_scenario, SimConfig(trials=0))

    def test_bad_time_step_rejected(self):
        with pytest.raises(ValueError, match="time_step"):
            simulate_reward_path(Constant(1.0), 10.0,
                                 SimConfig(trials=5, time_step=0.0))


def test_trials_csv_round_trip(tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(path, np.array([1.5, -0.25]), np.array([True, False]),
                     np.array([200.0, 600.0]))
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,profit(USD),success,stop_time(s)"
    assert lines[1] == "0,1.5,1,200"
    assert lines[2] == "1,-0.25,0,600"

    # 2*4096+3 rows cross two block edges; the per-row loop that
    # write_trials_csv replaced is the oracle
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0 ** 70,
                      1.5, -0.1, 1 / 3])
    rows = 2 * 4096 + 3
    profits = np.resize(edges, rows)
    successes = np.random.default_rng(0).random(rows) < 0.5
    stop_times = np.resize(edges[::-1], rows)
    write_trials_csv(path, profits, successes, stop_times)
    with open(tmp_path / "old.csv", "w", newline="\n") as handle:
        handle.write("trial,profit(USD),success,stop_time(s)\n")
        for i, (profit, success, stop) in enumerate(
                zip(profits, successes, stop_times)):
            handle.write(f"{i},{profit:.17g},{int(success)},{stop:.17g}\n")
    assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()
