import math

import numpy as np
import pytest

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
    ScenarioValidationError,
    harmonic_number,
    scenario_violations,
    validate_scenario,
)


def test_baseline_scenario_is_valid(baseline_scenario):
    assert validate_scenario(baseline_scenario) is baseline_scenario
    assert scenario_violations(baseline_scenario) == []


def test_small_baseline_delay_is_valid():
    s = Scenario(EconomicEnvironment(3.0, 0.05, 2.0), Constant(10.0))
    assert scenario_violations(s) == []


def test_speedup_below_one_rejected(baseline_env):
    env = EconomicEnvironment(0.5, baseline_env.cost_rate,
                              baseline_env.honest_delay)
    s = Scenario(env, Constant(10.0))
    violations = scenario_violations(s)
    assert len(violations) == 1
    assert "speedup" in violations[0]
    with pytest.raises(ScenarioValidationError):
        validate_scenario(s)


def test_abort_probability_one_rejected(baseline_env):
    s = Scenario(baseline_env, Constant(10.0), abort_probability=1.0)
    violations = scenario_violations(s)
    assert len(violations) == 1
    assert "abort_probability" in violations[0]


def test_all_violations_reported_at_once(baseline_env):
    s = Scenario(EconomicEnvironment(0.5, -1.0, 0.0),
                 Exponential(-3.0),
                 grinding_size=0,
                 abort_probability=1.5,
                 protocol_means=(-1.0,),
                 coalition_size=0,
                 players=0,
                 rounds=0,
                 grinding_cost_exponent=2.0)
    violations = scenario_violations(s)
    for name in ("speedup", "cost_rate", "honest_delay", "reward mean",
                 "grinding_size", "abort_probability", "protocol_means",
                 "coalition_size", "players", "rounds",
                 "grinding_cost_exponent"):
        assert any(name in v for v in violations), name
    with pytest.raises(ScenarioValidationError) as err:
        validate_scenario(s)
    assert err.value.violations == violations


def test_validation_is_idempotent(baseline_scenario):
    once = validate_scenario(baseline_scenario)
    assert validate_scenario(once) is once


def _random_valid_scenarios(count, seed=0):
    rng = np.random.default_rng(seed)
    models = [
        lambda: Constant(float(rng.uniform(0, 100))),
        lambda: Exponential(float(rng.uniform(0, 100))),
        lambda: Lognormal(float(rng.uniform(0.5, 100)),
                          float(rng.uniform(0.1, 400))),
        lambda: Empirical(tuple(rng.uniform(0, 100, rng.integers(1, 8)))),
        lambda: Bounded(float(rng.uniform(0, 500))),
        lambda: MarkovOU(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                         float(rng.uniform(0.01, 1.0)),
                         float(rng.uniform(0, 5))),
    ]
    for _ in range(count):
        env = EconomicEnvironment(float(rng.uniform(1, 10)),
                                  float(rng.uniform(0.001, 1.0)),
                                  float(rng.uniform(1, 10_000)))
        yield Scenario(
            env=env,
            reward=models[rng.integers(len(models))](),
            grinding_size=int(rng.integers(1, 16)),
            abort_probability=float(rng.uniform(0, 0.99)),
            protocol_means=tuple(rng.uniform(0, 100, rng.integers(0, 5))),
            coalition_size=int(rng.integers(1, 10)),
            players=int(rng.integers(1, 20)),
            rounds=int(rng.integers(1, 10)),
            grinding_cost_exponent=float(rng.uniform(0, 1)),
        )


def test_validated_scenarios_pass_downstream_preconditions():
    # anything validate_scenario accepts must run through the closed-form
    # report without tripping a later invariant check
    from esdp.thresholds import esdp

    for scenario in _random_valid_scenarios(60, seed=7):
        assert scenario_violations(scenario) == []
        report = esdp(scenario, candidate_delay=scenario.env.honest_delay)
        assert math.isfinite(report.esdp)
        assert report.secure in (True, False)


def test_harmonic_number_small_values():
    assert harmonic_number(0) == 0.0
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(4) == 25.0 / 12.0


def _direct_harmonic(n):
    return math.fsum(1.0 / i for i in range(1, n + 1))


def test_harmonic_number_is_the_exact_sum_up_to_1024():
    for n in range(1025):
        assert harmonic_number(n) == _direct_harmonic(n)


def test_harmonic_number_asymptotic_matches_direct_sum():
    # 1025 is the first n on the Euler-Maclaurin branch
    for n in (1025, 2000, 10 ** 4, 2 ** 16, 10 ** 6, 10 ** 6 + 1, 2 ** 20):
        direct = _direct_harmonic(n)
        assert abs(harmonic_number(n) - direct) <= 2 * math.ulp(direct), n


def test_harmonic_number_increases_across_the_branch_cutoff():
    values = [harmonic_number(n) for n in range(1000, 1100)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [-1, -3, 2.0, 1.5, True, "4", None])
def test_harmonic_number_rejects_non_counts(n):
    with pytest.raises(ValueError, match="n must be"):
        harmonic_number(n)


class TestRewardModels:
    def test_constant(self):
        model = Constant(7.5)
        rng = np.random.default_rng(0)
        assert model.mean() == 7.5
        assert model.expected_max(50) == 7.5
        assert np.all(model.sample(rng, 10) == 7.5)

    def test_bounded_is_worst_case_point_mass(self):
        model = Bounded(42.0)
        rng = np.random.default_rng(0)
        assert model.mean() == 42.0
        assert model.expected_max(9) == 42.0
        assert np.all(model.sample(rng, 5) == 42.0)

    def test_exponential_moments_and_max(self):
        model = Exponential(10.0)
        rng = np.random.default_rng(1)
        draws = model.sample(rng, 200_000)
        assert draws.mean() == pytest.approx(10.0, abs=3 * draws.std() / 447)
        assert model.expected_max(4) == pytest.approx(10.0 * 25.0 / 12.0,
                                                      rel=1e-12)

    def test_lognormal_moment_parameterization(self):
        model = Lognormal(10.0, 25.0)
        rng = np.random.default_rng(2)
        draws = model.sample(rng, 400_000)
        assert draws.mean() == pytest.approx(10.0, abs=0.05)
        assert draws.var() == pytest.approx(25.0, rel=0.05)

    @pytest.mark.parametrize("mean, variance, draws", [
        (10.0, 25.0, 4), (10.0, 50.0, 1024), (10.0, 1e4, 16), (1.0, 1e6, 16)])
    def test_lognormal_expected_max_vs_sampling(self, mean, variance, draws):
        # E[max] = G E[X F(X)^(G-1)] = G mean E[F(Y)^(G-1)] with Y the
        # size-biased draw: lognormal with the same sigma, log-location
        # mu + sigma^2, so F(Y) = Phi(Z) for Z ~ N(sigma, 1). Its samples are
        # bounded by G mean; plain maxima of a variance/mean^2 = 1e6 reward
        # have a standard error of hundreds of means at any feasible size.
        model = Lognormal(mean, variance)
        sigma = math.sqrt(math.log1p(variance / mean ** 2))
        z = np.random.default_rng(3).normal(sigma, 1.0, 400_000)
        cdf = np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in z])
        samples = draws * mean * cdf ** (draws - 1)
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert model.expected_max(draws) == pytest.approx(samples.mean(),
                                                          abs=3 * se)

    def test_empirical_expected_max_vs_sampling(self):
        model = Empirical((1.0, 5.0, 12.0, 30.0))
        rng = np.random.default_rng(4)
        draws = rng.choice((1.0, 5.0, 12.0, 30.0), size=(200_000, 3))
        maxima = draws.max(axis=1)
        se = maxima.std(ddof=1) / math.sqrt(maxima.size)
        assert model.expected_max(3) == pytest.approx(maxima.mean(),
                                                      abs=3 * se)
        assert model.mean() == pytest.approx(12.0)

    def test_empirical_requires_samples(self):
        assert Empirical(()).violations()

    def test_lognormal_requires_positive_variance(self):
        assert Lognormal(10.0, 0.0).violations()
        assert Lognormal(0.0, 25.0).violations()

    def test_markov_ou_transition_moments(self):
        model = MarkovOU(12.0, 10.0, 0.1, 2.0)
        dt = 1.0
        decay = math.exp(-0.1 * dt)
        assert model.transition_mean(12.0, dt) == pytest.approx(
            10.0 + 2.0 * decay)
        expected_var = 4.0 * (1 - math.exp(-0.2 * dt)) / 0.2
        assert model.transition_std(dt) ** 2 == pytest.approx(expected_var)
        assert model.stationary_std() == pytest.approx(2.0 / math.sqrt(0.2))

    def test_markov_ou_horizon_draws(self):
        model = MarkovOU(12.0, 10.0, 0.1, 2.0)
        rng = np.random.default_rng(5)
        # short horizon: reflection mass at 0 is negligible, so the
        # unreflected conditional moments apply
        draws = model.sample(rng, 200_000, horizon=5.0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(model.mean(horizon=5.0),
                                             abs=3 * se + 5e-3)

    def test_markov_ou_reflection_lifts_the_far_mean(self):
        # with mass near zero the reflected draws sit above the plain
        # conditional mean; the moments knowingly ignore that shift
        model = MarkovOU(12.0, 10.0, 0.1, 2.0)
        rng = np.random.default_rng(5)
        draws = model.sample(rng, 200_000, horizon=50.0)
        assert draws.mean() > model.mean(horizon=50.0)

    @pytest.mark.xfail(strict=True, reason="the closed forms use the "
                       "unreflected conditional mean of the OU reward")
    def test_markov_ou_mean_matches_reflected_draws(self):
        # started at 0 and pulled towards 0, half the unreflected law lies
        # below 0: mean(60) reads 0.0 while the folded draws average ~3.57
        model = MarkovOU(0.0, 0.0, 0.1, 2.0)
        draws = model.sample(np.random.default_rng(7), 200_000, horizon=60.0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert model.mean(horizon=60.0) == pytest.approx(draws.mean(),
                                                         abs=4 * se)

    @pytest.mark.parametrize("mean, variance, draws", [
        (10.0, 20.0, 5), (0.0, 20.0, 16), (100.0, 20.0, 16), (10.0, 20.0, 1024)])
    def test_markov_ou_expected_max_vs_sampling(self, mean, variance, draws):
        # mean 0 puts half the law on the reflection at 0; mean 100 is more
        # than 14 standard deviations above it, where the flat stretch is added
        horizon, kappa = 30.0, 0.1
        volatility = math.sqrt(
            variance * 2.0 * kappa / -math.expm1(-2.0 * kappa * horizon))
        model = MarkovOU(mean, mean, kappa, volatility)
        trials = 4_000_000 // draws
        maxima = model.sample(np.random.default_rng(6), trials * draws,
                              horizon).reshape(trials, draws).max(axis=1)
        se = maxima.std(ddof=1) / math.sqrt(maxima.size)
        assert model.expected_max(draws, horizon=horizon) == pytest.approx(
            maxima.mean(), abs=3 * se)

    @pytest.mark.parametrize("model, horizon", [
        (Lognormal(10.0, 1e4), None), (MarkovOU(10.0, 10.0, 0.1, 2.0), 30.0)])
    def test_expected_max_raises_when_panel_halving_disagrees(
            self, monkeypatch, model, horizon):
        monkeypatch.setattr(core, "_PANEL_WIDTH", 4.0)
        with pytest.raises(ValueError, match="quadrature did not converge"):
            model.expected_max(16, horizon=horizon)

    def test_markov_ou_needs_positive_reversion(self):
        assert MarkovOU(10.0, 10.0, 0.0, 2.0).violations()

    def test_markov_ou_requires_horizon_for_draw_moments(self):
        with pytest.raises(ValueError):
            MarkovOU(10.0, 10.0, 0.1, 2.0).expected_max(3)
