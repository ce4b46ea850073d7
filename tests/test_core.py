import math
from unittest import mock

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


@pytest.mark.parametrize("n", [-1, -3, 2.0, 1.5, True, "4", None, 10 ** 400])
def test_harmonic_number_rejects_non_counts(n):
    with pytest.raises(ValueError, match="n must be"):
        harmonic_number(n)


COUNTS = ("grinding_size", "coalition_size", "players", "rounds")


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("value", [True, False, 0, -1, 1.5, math.nan,
                                   math.inf, "3", 10 ** 400])
def test_every_count_takes_the_one_rule(baseline_env, name, value):
    # a bool is not a count, and a count too large for a float is judged
    # without an OverflowError
    s = Scenario(baseline_env, Constant(10.0), **{name: value})
    violations = scenario_violations(s)
    assert len(violations) == 1
    assert violations[0].startswith(f"{name} must be an integer >= 1")


@pytest.mark.parametrize("name", COUNTS)
def test_counts_keep_integer_valued_floats_and_exact_ints(baseline_env, name):
    for value in (3.0, np.int64(3), 10 ** 9):
        s = Scenario(baseline_env, Constant(10.0), **{name: value})
        assert scenario_violations(s) == []


def test_players_are_capped_where_the_equilibrium_stops(baseline_env):
    def players(n):
        return scenario_violations(
            Scenario(baseline_env, Constant(10.0), players=n))

    assert players(core.MAX_PLAYERS) == []
    assert players(core.MAX_PLAYERS + 1) == [
        "players must be an integer >= 1 and <= 1e+09 "
        "(got 1000000001)"]
    # the other counts stop only where a float does
    s = Scenario(baseline_env, Constant(10.0), rounds=10 ** 308)
    assert scenario_violations(s) == []


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

    def test_empirical_mean_near_the_largest_float(self):
        # the plain sum of two samples of 1e308 passes the float range
        assert Empirical((1e308, 1e308)).mean() == 1e308
        assert Empirical((1.5e308, 1.7e308, 0.0)).mean() == pytest.approx(
            1.5e308 / 3.0 + 1.7e308 / 3.0, rel=1e-15)

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100)),
                    min_size=1, max_size=40))
    def test_empirical_mean_keeps_the_plain_mean_bits(self, samples):
        # scaled to |x| <= 1, every sample stays a normal float
        assert Empirical(tuple(samples)).mean() == float(np.mean(samples))

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

    def test_markov_ou_steps_reach_the_transition_moments(self):
        # 40 steps of 0.05 s, as a rollout steps at the DP's dt, against
        # the one exact transition over 2 s
        model = MarkovOU(10.0, 10.0, 0.01, 2.0)
        rng = np.random.default_rng(8)
        v = np.full(100_000, 10.0)
        for _ in range(40):
            v = model.step(v, 0.05, rng)
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert v.mean() == pytest.approx(model.transition_mean(10.0, 2.0),
                                         abs=3 * se)
        assert v.var(ddof=1) == pytest.approx(
            model.transition_std(2.0) ** 2,
            rel=4 * math.sqrt(2.0 / v.size) + 1e-3)

    def test_markov_ou_steps_stay_nonnegative(self):
        model = MarkovOU(0.5, 0.5, 0.05, 3.0)  # heavy reflection regime
        rng = np.random.default_rng(12)
        v = np.full(2000, model.initial)
        for _ in range(50):
            v = model.step(v, 1.0, rng)
            assert v.min() >= 0.0

    def test_markov_ou_tiny_volatility_pins_the_path(self):
        model = MarkovOU(10.0, 10.0, 1e6, 1e-9)
        rng = np.random.default_rng(3)
        v = np.full(10, model.initial)
        for _ in range(10):
            v = model.step(v, 1.0, rng)
            assert np.abs(v - 10.0).max() < 1e-6

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
        # at G = 1024 some first-level panel needs a split, which a cap of
        # 0 splits forbids
        monkeypatch.setattr(core, "_MAX_SPLITS", 0)
        with pytest.raises(ValueError, match="quadrature did not converge"):
            model.expected_max(1024, horizon=horizon)

    def test_markov_ou_needs_positive_reversion(self):
        assert MarkovOU(10.0, 10.0, 0.0, 2.0).violations()

    def test_markov_ou_requires_horizon_for_draw_moments(self):
        with pytest.raises(ValueError):
            MarkovOU(10.0, 10.0, 0.1, 2.0).expected_max(3)


def test_gauss_legendre_rule_is_numpys():
    nodes, weights = core._gauss_legendre()[:2]
    want_nodes, want_weights = np.polynomial.legendre.leggauss(8)
    assert nodes.tolist() == want_nodes.tolist()
    assert weights.tolist() == want_weights.tolist()


def two_width_quadrature(f, lo, hi):
    """The fixed rule the panel bisection replaced, kept as its reference:
    composite 8-point Gauss-Legendre at panel widths 0.25 and 0.125, which
    must agree to 1e-9 relative."""
    nodes, weights = core._gauss_legendre()[:2]
    sums = []
    for width in (0.25, 0.125):
        half = 0.5 * (hi - lo) / max(1, math.ceil((hi - lo) / width))
        x = np.arange(lo + half, hi, 2.0 * half)[:, None] + half * nodes
        sums.append(half * float(np.sum(weights * f(x))))
    coarse, fine = sums
    assert abs(coarse - fine) <= 1e-9 * abs(fine)
    return fine


def lognormal_max_oracle(model, draws):
    """E[max of `draws`] by scipy's adaptive quad in log space:
    G mean phi(z - sigma) Phi(z)^(G-1), with log Phi from log_ndtr."""
    pytest.importorskip("scipy")
    from scipy import integrate, special
    sigma = model._underlying()[1]
    peak = math.sqrt(2.0 * math.log(draws))
    log_scale = math.log(draws * model.mean_value) - 0.5 * math.log(2 * math.pi)

    def f(z):
        return math.exp(log_scale - (z - sigma) ** 2 / 2
                        + (draws - 1) * special.log_ndtr(z))

    value, _ = integrate.quad(f, -40.0, sigma + peak + 40.0, limit=500,
                              points=[sigma, peak - 1.0, peak, peak + 1.0],
                              epsabs=0.0, epsrel=1e-13)
    return value


def markov_ou_max_oracle(model, draws, horizon):
    """E[max of `draws`] of |N(m, s^2)| by scipy's adaptive quad of
    1 - F^G over x >= 0, F(x) = 1 - ndtr(-(x - m)/s) - ndtr(-(x + m)/s)."""
    pytest.importorskip("scipy")
    from scipy import integrate, special
    m = model.transition_mean(model.initial, horizon)
    s = model.transition_std(horizon)

    def f(x):
        tail = special.ndtr((m - x) / s) + special.ndtr(-(x + m) / s)
        return 1.0 if tail >= 1.0 else -math.expm1(draws * math.log1p(-tail))

    peak = m + s * math.sqrt(2.0 * math.log(draws))
    value, _ = integrate.quad(f, 0.0, peak + 40.0 * s, limit=500,
                              points=[max(m, 0.0), peak],
                              epsabs=0.0, epsrel=1e-13)
    return value


class TestExpectedMaxQuadrature:
    # the fixed two-width rule raised "did not converge" at each of these
    # but variance 1e4 at G = 10**13
    @pytest.mark.parametrize("variance", [1.0, 1e4])
    @pytest.mark.parametrize("draws", [10 ** 13, 10 ** 30, 10 ** 300])
    def test_lognormal_at_huge_grinding_matches_scipy(self, variance, draws):
        model = Lognormal(10.0, variance)
        assert model.expected_max(draws) == pytest.approx(
            lognormal_max_oracle(model, draws), rel=1e-9)

    @pytest.mark.parametrize("mean, draws", [(1e300, 10 ** 15), (1e308, 2)])
    def test_lognormal_past_the_float_range_of_g_times_mean(self, mean,
                                                             draws):
        # sigma ~ 1e-150 at variance 1e300: the maximum is the mean
        assert Lognormal(mean, 1e300).expected_max(draws) == pytest.approx(
            mean, rel=1e-9)

    @pytest.mark.parametrize("model, horizon", [
        (MarkovOU(10.0, 10.0, 0.1, 2.0), 30.0),
        (MarkovOU(0.0, 0.0, 0.1, 2.0), 60.0)])
    @pytest.mark.parametrize("draws", [10 ** 60, 10 ** 100])
    def test_markov_ou_at_huge_grinding_matches_scipy(self, model, horizon,
                                                      draws):
        assert model.expected_max(draws, horizon=horizon) == pytest.approx(
            markov_ou_max_oracle(model, draws, horizon), rel=1e-9)

    @given(kind=st.sampled_from(["lognormal", "markov_ou"]),
           draws=st.integers(2, 1024),
           mean=st.floats(1.0, 100.0),
           log_variance=st.floats(0.0, math.log(1e6)),
           initial=st.floats(0.0, 30.0), long_run=st.floats(1.0, 30.0),
           kappa=st.floats(0.01, 0.5), volatility=st.floats(0.5, 5.0),
           horizon=st.floats(60.0, 7200.0))
    def test_bisection_agrees_with_the_two_width_rule(
            self, kind, draws, mean, log_variance, initial, long_run, kappa,
            volatility, horizon):
        # the ranges the closed-form benchmark draws these rewards from
        model = Lognormal(mean, math.exp(log_variance)) \
            if kind == "lognormal" else \
            MarkovOU(initial, long_run, kappa, volatility)
        bisected = model.expected_max(draws, horizon=horizon)
        with mock.patch.object(core, "_checked_quadrature",
                               two_width_quadrature):
            fixed = model.expected_max(draws, horizon=horizon)
        assert bisected == pytest.approx(fixed, rel=1e-11)
