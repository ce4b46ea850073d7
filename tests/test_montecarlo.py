import math
from dataclasses import dataclass

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
    check_violations,
)
from esdp.equilibrium import _players, conditional_inverse_expectation
from esdp.montecarlo import (
    SimConfig,
    _mean_se,
    _per_block,
    commit_profit_samples,
    estimate_tail_probability,
    grinding_max_oracle,
    profit_estimate,
    rollout_policy,
    write_trials_csv,
)
from esdp.stopping import GridSpec, PolicyGrid, initial_value, solve
from esdp.thresholds import epsilon_robust_threshold, expected_max_exponential
from esdp.thresholds import MomentBounds, ParameterIntervals


class TestDeterminism:
    def test_identical_seed_identical_paths(self, rollout_grids):
        scenario, pg = rollout_grids["ou-default"]
        cfg = SimConfig(trials=5000, seed=99)
        assert rollout_policy(pg, scenario, cfg) == \
            rollout_policy(pg, scenario, cfg)

    def test_distinct_seeds_differ(self, rollout_grids):
        scenario, pg = rollout_grids["ou-default"]
        a = rollout_policy(pg, scenario, SimConfig(trials=100, seed=1))
        b = rollout_policy(pg, scenario, SimConfig(trials=100, seed=2))
        assert a != b

    def test_commit_samples_reproducible(self, baseline_env):
        scenario = Scenario(baseline_env, Exponential(10.0))
        cfg = SimConfig(trials=20_000, seed=314)
        first = commit_profit_samples(scenario, cfg)
        second = commit_profit_samples(scenario, cfg)
        for x, y in zip(first, second):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("reward", [Exponential(10.0), DEFAULT_OU_REWARD],
                             ids=["commit_profit_samples", "markov_ou"])
    def test_trial_count_extends_the_stream(self, baseline_env, reward):
        # block-wise substreams: a longer run starts with the shorter one,
        # here across two block edges
        def run(trials):
            return commit_profit_samples(Scenario(baseline_env, reward),
                                         SimConfig(trials=trials, seed=7))[0]

        short, long = run(1000), run(9000)
        assert len(short) == 1000 and len(long) == 9000
        assert np.array_equal(short, long[:1000])


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
        assert profits.shape == (10,)
        assert np.allclose(profits, -5.0)

    def test_profit_estimate_summary(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(5.0, 2.0, 40_000)
        est = profit_estimate(samples, 0.99)
        assert est.value == pytest.approx(5.0, abs=0.05)
        low, high = est.confidence_interval
        assert low <= est.value <= high
        assert est.trials == samples.size
        assert (samples > 0.0).mean() == pytest.approx(0.9938, abs=0.01)

    def test_profit_estimate_near_the_largest_float(self):
        # profits of -1e306 (a delay near 1e308) once squared to inf in the
        # standard error and warned; the scaled sums keep it finite
        rng = np.random.default_rng(0)
        samples = -1e306 * rng.uniform(1.0, 1.5, 100)
        est = profit_estimate(samples, 0.99)
        assert est.value == pytest.approx(-1.25e306, rel=0.1)
        assert 0.0 < est.std_error < 1e306
        assert all(math.isfinite(end) for end in est.confidence_interval)
        scaled = profit_estimate(samples / 1e300, 0.99)
        assert est.std_error == pytest.approx(scaled.std_error * 1e300,
                                              rel=1e-12)


class TestRollout:
    def test_constant_profitable_delay(self):
        env = EconomicEnvironment(3.0, 0.05, 300.0)
        scenario = Scenario(env, Constant(10.0))
        vg, pg = solve(scenario, GridSpec(time_step=1.0, reward_points=101))
        cfg = SimConfig(trials=2000, seed=21)
        est = rollout_policy(pg, scenario, cfg)
        # zero-variance trials: allow only float accumulation noise
        assert est.value == pytest.approx(initial_value(vg, 10.0), abs=1e-9)
        assert est.std_error <= 1e-15
        profits = rollout_oracle_profits(pg, scenario, cfg)
        assert est == profit_estimate(profits, cfg.confidence)
        assert (profits > 0.0).all()

    def test_constant_unprofitable_delay_never_computes(self):
        env = EconomicEnvironment(3.0, 0.05, 1200.0)
        scenario = Scenario(env, Constant(10.0))
        _, pg = solve(scenario, GridSpec(time_step=2.0, reward_points=51))
        cfg = SimConfig(trials=500, seed=2)
        est = rollout_policy(pg, scenario, cfg)
        assert est.value == 0.0
        profits = rollout_oracle_profits(pg, scenario, cfg)
        assert est == profit_estimate(profits, cfg.confidence)
        assert not (profits > 0.0).any()

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
        assert est.value >= -worst - 1e-9

    def test_scenario_mismatch_rejected(self, baseline_scenario):
        vg, pg = solve(baseline_scenario, GridSpec(time_step=5.0,
                                                   reward_points=21))
        other = Scenario(baseline_scenario.env, Constant(11.0))
        with pytest.raises(ValueError, match="different scenario"):
            rollout_policy(pg, other, SimConfig(trials=10))


def rollout_oracle_profits(pg, scenario, cfg):
    """The rollout loop as first written: a fancy-indexed gather from the
    (work, reward, time) policy and masked cost and reward updates."""
    model = scenario.reward
    compute, v_values = pg.compute, pg.v_values
    n_s, n_v, n_t = compute.shape
    final_work, horizon_idx = n_s - 1, n_t - 1
    dt = pg.spec.time_step
    step_cost = scenario.env.cost_rate * dt
    dv = v_values[1] - v_values[0]

    def profits(rng, size):
        v = np.full(size, model.mean())
        work = np.zeros(size, dtype=np.intp)
        cost = np.zeros(size)
        reward = np.zeros(size)
        running = np.ones(size, dtype=bool)
        for k in range(horizon_idx):
            if not running.any():
                break
            v_idx = np.clip(np.rint(v / dv), 0, n_v - 1).astype(np.intp)
            act = compute[work, v_idx, k] & running
            cost[act] += step_cost
            if isinstance(model, MarkovOU):
                v = model.step(v, dt, rng)
            work[act] += 1
            finished = act & (work == final_work)
            succeeded = finished & (k + 1 < horizon_idx)
            reward[succeeded] = v[succeeded]
            running &= ~finished
        return reward - cost

    return _per_block(cfg, profits)


def rollout_oracle(pg, scenario, cfg):
    return profit_estimate(rollout_oracle_profits(pg, scenario, cfg),
                           cfg.confidence)


ROLLOUT_CASES = {
    # never profitable: every trial idles to the reveal
    "constant-idle": (EconomicEnvironment(3.0, 0.05, 1200.0), Constant(10.0),
                      GridSpec(time_step=2.0, reward_points=51)),
    # every trial completes at step 100 of 300, so the loop breaks early
    "constant-early-break": (EconomicEnvironment(3.0, 0.05, 300.0),
                             Constant(10.0),
                             GridSpec(time_step=1.0, reward_points=101)),
    "ou-default": (EconomicEnvironment(3.0, 0.05, 120.0), DEFAULT_OU_REWARD,
                   GridSpec(time_step=1.0, reward_points=161,
                            reward_max=32.0)),
    "ou-volatile": (EconomicEnvironment(4.0, 0.08, 90.0),
                    MarkovOU(5.0, 12.0, 0.05, 3.0),
                    GridSpec(time_step=1.5, reward_points=121,
                             reward_max=60.0, quadrature_nodes=9)),
}


@pytest.fixture(scope="module")
def rollout_grids():
    return {name: (Scenario(env, reward), solve(Scenario(env, reward),
                                                grid)[1])
            for name, (env, reward, grid) in ROLLOUT_CASES.items()}


class TestRolloutBits:
    @pytest.mark.parametrize("trials", [2 * 4096 + 3, 500])
    @pytest.mark.parametrize("name", list(ROLLOUT_CASES))
    def test_equals_the_first_loop(self, rollout_grids, name, trials):
        scenario, pg = rollout_grids[name]
        cfg = SimConfig(trials=trials, seed=trials + 17)
        assert rollout_policy(pg, scenario, cfg) == \
            rollout_oracle(pg, scenario, cfg)

    @pytest.mark.parametrize("name", ["constant-early-break", "ou-default"])
    def test_any_policy_layout_gives_the_same_bits(self, rollout_grids,
                                                   name):
        scenario, pg = rollout_grids[name]
        reordered = PolicyGrid(np.ascontiguousarray(pg.compute), pg.s_values,
                               pg.v_values, pg.t_values, pg.spec,
                               pg.scenario)
        assert reordered.compute.flags.c_contiguous
        cfg = SimConfig(trials=2 * 4096 + 3, seed=5)
        assert rollout_policy(reordered, scenario, cfg) == \
            rollout_oracle(pg, scenario, cfg)

    @pytest.mark.parametrize("speedup", [1.0, 3.0])
    def test_always_computing_policy(self, speedup):
        # at speedup 1 every trial completes at the reveal, a failure
        scenario = Scenario(EconomicEnvironment(speedup, 0.05, 60.0),
                            MarkovOU(5.0, 12.0, 0.05, 3.0))
        _, pg = solve(scenario, GridSpec(time_step=1.0, reward_points=41,
                                         reward_max=60.0))
        pg.compute = np.ones_like(pg.compute)
        cfg = SimConfig(trials=500, seed=9)
        profits = rollout_oracle_profits(pg, scenario, cfg)
        assert rollout_policy(pg, scenario, cfg) == \
            profit_estimate(profits, cfg.confidence)
        assert (not (profits > 0.0).any()) == (speedup == 1.0)


class TestTailProbability:
    def test_break_even_profit_never_positive(self, baseline_scenario):
        est = estimate_tail_probability(baseline_scenario, 600.0,
                                        SimConfig(trials=5000, seed=1))
        assert est.value == 0.0

    def test_just_below_break_even_always_positive(self, baseline_scenario):
        est = estimate_tail_probability(baseline_scenario, 599.0,
                                        SimConfig(trials=5000, seed=1))
        assert est.value == 1.0

    def test_chebyshev_guarantee_lognormal(self, baseline_env):
        epsilon = 0.01
        delay = epsilon_robust_threshold(
            ParameterIntervals(3.0, 0.05, 0.0),
            MomentBounds(10.0, 5.0, epsilon))
        scenario = Scenario(baseline_env, Lognormal(10.0, 25.0))
        est = estimate_tail_probability(scenario, delay,
                                        SimConfig(trials=100_000, seed=6))
        assert est.confidence_interval[1] <= epsilon

    @pytest.mark.parametrize("reward", [Exponential(10.0), DEFAULT_OU_REWARD],
                             ids=["exponential", "markov_ou"])
    @pytest.mark.parametrize("delay", [math.nan, math.inf, -5.0, 0.0])
    def test_rejects_delay_outside_positive_reals(self, baseline_env, reward,
                                                  delay):
        with pytest.raises(ValueError, match="delay must be finite and > 0"):
            estimate_tail_probability(Scenario(baseline_env, reward), delay,
                                      SimConfig(trials=100, seed=1))


@dataclass(frozen=True)
class ConditionalInverseEstimate:
    """Empirical E[1/K | K >= 1]; `value` is None when every draw had K=0
    (possible at tiny attack probabilities), flagged instead of crashing."""

    value: float | None
    std_error: float | None
    effective_trials: int
    requested_trials: int

    @property
    def insufficient_data(self) -> bool:
        return self.value is None


def equilibrium_empirical_check(n: int, p: float,
                                cfg: SimConfig) -> ConditionalInverseEstimate:
    """Sample K ~ Binomial(n, p), discard K = 0, and average 1/K; Monte
    Carlo oracle for the exact conditional expectation."""
    n = _players(n)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1] (got {p})")
    check_violations(cfg.violations())
    k = _per_block(cfg, lambda rng, size: rng.binomial(n, p, size))
    inverses = 1.0 / k[k > 0]
    if inverses.size == 0:
        return ConditionalInverseEstimate(value=None, std_error=None,
                                          effective_trials=0,
                                          requested_trials=cfg.trials)
    value, se = _mean_se(inverses)
    return ConditionalInverseEstimate(value=value, std_error=se,
                                      effective_trials=int(inverses.size),
                                      requested_trials=cfg.trials)


class TestOracles:
    def test_grinding_oracle_single_draw(self):
        est = grinding_max_oracle(10.0, 1, SimConfig(trials=100_000, seed=9))
        assert est.value == pytest.approx(10.0, abs=3 * est.std_error)

    def test_grinding_oracle_matches_harmonic_form(self):
        est = grinding_max_oracle(10.0, 4, SimConfig(trials=200_000, seed=10))
        assert est.value == pytest.approx(expected_max_exponential(10.0, 4),
                                          abs=3 * est.std_error)

    @pytest.mark.parametrize("mean, draws, match", [
        (math.nan, 3, "mean must be finite and >= 0"),
        (math.inf, 3, "mean must be finite and >= 0"),
        (10.0, 2.5, "draws must be an integer >= 1"),
        (10.0, True, "draws must be an integer >= 1"),
    ], ids=["nan-mean", "inf-mean", "fractional-draws", "bool-draws"])
    def test_grinding_oracle_rejects_bad_input(self, mean, draws, match):
        with pytest.raises(ValueError, match=match):
            grinding_max_oracle(mean, draws, SimConfig(trials=10, seed=0))

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

    @pytest.mark.parametrize("n", [2.5, True, math.nan, 0, 10 ** 20])
    def test_equilibrium_check_takes_the_exact_player_count_rule(self, n):
        # the rule of conditional_inverse_expectation (TestPlayerCount)
        with pytest.raises(ValueError, match="^n must be"):
            equilibrium_empirical_check(n, 0.5, SimConfig(trials=10, seed=0))

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

    @pytest.mark.parametrize("trials", [1000.0, 2.5, True, "1000"])
    def test_non_integer_trials_rejected(self, baseline_scenario, trials):
        # an integral float used to pass the check and fail inside numpy
        with pytest.raises(ValueError,
                           match="trials must be an integer >= 1"):
            commit_profit_samples(baseline_scenario,
                                  SimConfig(trials=trials))


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
