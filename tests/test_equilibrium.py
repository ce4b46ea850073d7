import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esdp import equilibrium
from esdp.core import MAX_PLAYERS, Exponential, Scenario, validate_scenario
from esdp.equilibrium import (
    EquilibriumResult,
    conditional_inverse_expectation,
    equilibrium_attack_probability,
)
from esdp.thresholds import linear_threshold


def enumerate_conditional_inverse(n, p):
    """Oracle: weigh all 2^n attack profiles explicitly."""
    num, den = [], []
    for profile in range(1, 2 ** n):
        k = bin(profile).count("1")
        weight = p ** k * (1.0 - p) ** (n - k)
        num.append(weight / k)
        den.append(weight)
    return math.fsum(num) / math.fsum(den)


def exact_conditional_inverse(n, p):
    """Oracle: E[1/K | K >= 1] in rational arithmetic, with p the binary
    fraction a/d that it is and q = (d - a)/d exactly. The common factor
    d^n cancels, and lcm(1..n) clears the 1/k, so the sums are integers:
    Horner's rule in a over C(n, k) (lcm/k) a^k b^(n-k), with b = d - a."""
    a, d = Fraction(p).as_integer_ratio()
    b = d - a
    lcm = math.lcm(*range(1, n + 1))
    acc, choose, b_power = 0, 1, 1
    for k in range(n, 0, -1):  # choose = C(n, k)
        acc = acc * a + choose * (lcm // k) * b_power
        choose = choose * k // (n - k + 1)
        b_power *= b
    return Fraction(acc * a, lcm * (d ** n - b ** n))


def telescoped_conditional_inverse(n, p):
    """Oracle: E[1/K | K >= 1] from the telescoped identity
    E[1/K; K >= 1] = sum_j q^(n-j) (1 - q^j) / j over j = 1..n, q = 1 - p.
    Every term is positive, and fsum adds them exactly."""
    if n == 1:
        return 1.0
    if p == 1.0:
        return 1.0 / n
    j = np.arange(1.0, n + 1.0)
    log_q = math.log1p(-p)
    terms = np.exp((n - j) * log_q) * -np.expm1(j * log_q) / j
    return math.fsum(terms) / -math.expm1(n * log_q)


def oracle_equilibrium(n, expected_reward, cost_rate, delay, speedup):
    """200-step bisection on [1e-12, 1] over the telescoped identity."""
    cost = cost_rate * delay / speedup
    if expected_reward <= cost:
        return EquilibriumResult(0.0, 0.0, 0.0, "no-attack")

    def gap(p):
        return telescoped_conditional_inverse(n, p) * expected_reward - cost

    full = gap(1.0)
    if full > 0.0:
        return EquilibriumResult(1.0, float(n), full, "saturated", abs(full))
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        value = gap(mid)
        if value == 0.0:
            lo = hi = mid
            break
        if value > 0.0:
            lo = mid
        else:
            hi = mid
    p_star = 0.5 * (lo + hi)
    return EquilibriumResult(p_star, n * p_star, 0.0, "interior",
                             abs(gap(p_star)))


class TestConditionalInverseExpectation:
    def test_single_player_is_always_one(self):
        for p in (1e-9, 0.2, 0.7, 1.0):
            assert conditional_inverse_expectation(1, p) == 1.0

    def test_two_player_hand_formula(self):
        # (2 - 1.5 p) / (2 - p), cross-checked by enumerating 4 outcomes
        for p in (0.1, 2.0 / 3.0, 0.95):
            expected = (2.0 - 1.5 * p) / (2.0 - p)
            assert conditional_inverse_expectation(2, p) == pytest.approx(
                expected, rel=1e-14)
            assert enumerate_conditional_inverse(2, p) == pytest.approx(
                expected, rel=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_matches_brute_force_up_to_twelve_players(self, p):
        for n in range(1, 13):
            exact = conditional_inverse_expectation(n, p)
            brute = enumerate_conditional_inverse(n, p)
            assert exact == pytest.approx(brute, rel=1e-12)

    def test_value_range_and_monotonicity(self):
        grid = np.linspace(0.05, 1.0, 20)
        for n in (2, 5, 17):
            values = [conditional_inverse_expectation(n, p) for p in grid]
            assert all(0.0 < v <= 1.0 for v in values)
            assert all(b < a for a, b in zip(values, values[1:]))
        for p in (0.2, 0.6):
            by_n = [conditional_inverse_expectation(n, p)
                    for n in range(1, 30)]
            assert all(b < a for a, b in zip(by_n, by_n[1:]))

    def test_full_participation(self):
        assert conditional_inverse_expectation(7, 1.0) == pytest.approx(
            1.0 / 7.0)

    def test_large_player_counts_stay_finite(self):
        value = conditional_inverse_expectation(2000, 0.4)
        assert 0.0 < value < 1.0 / 700.0  # roughly 1/E[K]

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            conditional_inverse_expectation(5, 0.0)

    def test_subnormal_no_attack_probability(self):
        # (1-p)^n = 1e-323 is subnormal here
        n, p = 355, 0.8774
        telescoped = telescoped_conditional_inverse(n, p)
        assert telescoped == pytest.approx(0.00321178, rel=1e-6)
        assert conditional_inverse_expectation(n, p) == pytest.approx(
            telescoped, rel=1e-12)

    def test_exact_oracle_on_seeded_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 201))
            p = float(rng.choice([rng.uniform(), 10.0 ** rng.uniform(-12, 0)]))
            exact = exact_conditional_inverse(n, p)
            value = conditional_inverse_expectation(n, p)
            assert abs(Fraction(value) / exact - 1) <= 1e-14, (n, p)

    @pytest.mark.parametrize("n", [2, 3, 50, 200, 355, 501, 2000, 5000])
    def test_exact_oracles_on_the_edges(self, n):
        # the rational oracle up to n = 501; past it, where it takes seconds,
        # the telescoped fsum, itself within a few ulps
        for p in (1e-300, 1e-12, 1e-6, 0.01, 0.3, 0.8774, 1.0 - 1e-9):
            if p < 1e-200 and n > 200:
                continue  # 1e-300 has a 1000-bit denominator
            value = conditional_inverse_expectation(n, p)
            if n <= 501:
                error = abs(Fraction(value) / exact_conditional_inverse(n, p)
                            - 1)
            else:
                error = abs(value / telescoped_conditional_inverse(n, p) - 1)
            assert error <= 1e-14, p

    @pytest.mark.parametrize("n", [3, 5000])
    def test_never_above_one_at_tiny_p(self, n):
        assert conditional_inverse_expectation(n, 1e-300) == 1.0

    @given(n=st.integers(1, 5000), extra=st.integers(0, 100),
           p=st.floats(0.0, 1.0, exclude_min=True),
           q=st.floats(0.0, 1.0, exclude_min=True))
    def test_range_and_monotonicity_properties(self, n, extra, p, q):
        # each value is a few ulps from the exact one: at most 3.9e-16 from
        # rational arithmetic, and 8.9e-16 from the telescoped fsum (its own
        # rounding included) over 20000 random cases with n <= 5100
        slack = 1.0 + 2e-15
        p, q = min(p, q), max(p, q)
        value = conditional_inverse_expectation(n, p)
        assert 1.0 / n / slack <= value <= 1.0
        assert conditional_inverse_expectation(n, q) <= value * slack
        assert conditional_inverse_expectation(n + extra, p) <= value * slack


class TestEquilibrium:
    def test_interior_two_thirds(self):
        result = equilibrium_attack_probability(2, 10.0, 0.05, 450.0, 3.0)
        assert result.regime == "interior"
        assert result.attack_probability == pytest.approx(2.0 / 3.0,
                                                          abs=1e-10)
        assert result.residual < 1e-9
        assert result.per_attacker_profit == 0.0
        assert result.expected_attackers == pytest.approx(4.0 / 3.0,
                                                          abs=1e-9)

    def test_no_attack_when_cost_exceeds_reward(self):
        result = equilibrium_attack_probability(5, 10.0, 0.05, 720.0, 3.0)
        assert result.regime == "no-attack"
        assert result.attack_probability == 0.0

    def test_equality_resolves_to_no_attack(self):
        result = equilibrium_attack_probability(5, 10.0, 1.0, 30.0, 3.0)
        assert result.regime == "no-attack"

    def test_solo_profitable_attacker_saturates(self):
        result = equilibrium_attack_probability(1, 10.0, 0.05, 300.0, 3.0)
        assert result.regime == "saturated"
        assert result.attack_probability == 1.0
        assert result.per_attacker_profit == pytest.approx(5.0, rel=1e-12)

    def test_indifference_residual_on_random_interior_cases(self):
        rng = np.random.default_rng(13)
        interior_seen = 0
        for _ in range(100):
            n = int(rng.integers(2, 30))
            reward = float(rng.uniform(1.0, 100.0))
            cost_rate = float(rng.uniform(0.01, 1.0))
            speedup = float(rng.uniform(1.0, 8.0))
            # cost strictly between the interior bracket ends
            cost = float(rng.uniform(reward / n, reward))
            delay = cost * speedup / cost_rate
            result = equilibrium_attack_probability(n, reward, cost_rate,
                                                    delay, speedup)
            if result.regime == "interior":
                interior_seen += 1
                assert result.residual <= 1e-9
                assert 0.0 < result.attack_probability < 1.0
        assert interior_seen > 50

    def test_strict_dominance_delay_suppresses_attacks_for_all_n(self):
        # the single-attacker break-even is where honesty strictly
        # dominates for every player count
        delay = linear_threshold(3.0, 0.05, 10.0)
        for n in range(1, 51):
            result = equilibrium_attack_probability(n, 10.0, 0.05, delay, 3.0)
            assert result.attack_probability == 0.0
            assert result.regime == "no-attack"

    def test_attacks_exist_below_the_dominance_delay(self):
        delay = linear_threshold(3.0, 0.05, 10.0)
        for n in (1, 2, 10):
            result = equilibrium_attack_probability(n, 10.0, 0.05,
                                                    0.9 * delay, 3.0)
            assert result.attack_probability > 0.0

    def test_zero_reward_never_attacks(self):
        result = equilibrium_attack_probability(4, 0.0, 0.05, 100.0, 3.0)
        assert result.regime == "no-attack"

    def test_matches_oracle_bisection(self):
        # regimes and the no-attack and saturated results are exact; an
        # interior p* from the Newton root agrees with the full-precision
        # bisection to 1e-11 and leaves an indifference gap of 1e-12 E[V]
        rng = np.random.default_rng(4)
        regimes = {"no-attack": 0, "interior": 0, "saturated": 0}
        for _ in range(200):
            n = int(round(math.exp(rng.uniform(0.0, math.log(5000.0)))))
            reward = float(rng.uniform(0.5, 100.0))
            cost_rate = float(rng.uniform(0.01, 1.0))
            speedup = float(rng.uniform(1.0, 8.0))
            # cost / reward log-uniform from half the saturation edge 1/n
            # to twice the no-attack edge 1
            ratio = math.exp(rng.uniform(math.log(0.5 / n), math.log(2.0)))
            delay = ratio * reward * speedup / cost_rate
            args = (n, reward, cost_rate, delay, speedup)
            result = equilibrium_attack_probability(*args)
            oracle = oracle_equilibrium(*args)
            assert result.regime == oracle.regime
            regimes[result.regime] += 1
            if result.regime != "interior":
                assert result == oracle
                continue
            p_star = result.attack_probability
            assert p_star == pytest.approx(oracle.attack_probability,
                                           rel=1e-11)
            assert result.expected_attackers == n * p_star
            assert result.per_attacker_profit == 0.0
            cost = cost_rate * delay / speedup
            gap = telescoped_conditional_inverse(n, p_star) * reward - cost
            assert abs(gap) <= 1e-12 * reward
            assert result.residual <= 1e-12 * reward
        assert min(regimes.values()) >= 10, regimes

    def _counted_solve(self, monkeypatch, *args):
        calls = []

        def counted(n, p):
            calls.append(p)
            return conditional_inverse_expectation(n, p)

        monkeypatch.setattr(equilibrium, "conditional_inverse_expectation",
                            counted)
        return equilibrium_attack_probability(*args), len(calls)

    def test_an_interior_solve_spends_few_gap_evaluations(self, monkeypatch):
        # the bisection to full precision spent 66 here, Brent's method 12
        result, gap_evals = self._counted_solve(
            monkeypatch, 4001, 10.0, 0.05, 400.0, 3.0)
        assert result.regime == "interior"
        assert gap_evals <= 8

    def test_validator_scale(self, monkeypatch):
        # case study 4's scale: n = 10^6 validators
        n, reward = 10 ** 6, 10.0
        result, gap_evals = self._counted_solve(
            monkeypatch, n, reward, 0.05, 150.0, 3.0)
        assert result.regime == "interior"
        assert gap_evals <= 8
        cost = 0.05 * 150.0 / 3.0
        gap = telescoped_conditional_inverse(
            n, result.attack_probability) * reward - cost
        assert abs(gap) <= 1e-14 * reward
        assert result.residual <= 1e-14 * reward

    def test_a_flat_gap_stops_at_its_rounding(self, monkeypatch):
        # g(p) = 1 - p/4 + ... at n = 2: 1 - 1e-12 pins p* only to the
        # rounding of g, about 1e-15 / (1/4) in p, and Newton stops there
        result, gap_evals = self._counted_solve(
            monkeypatch, 2, 1.0, 1.0 - 1e-12, 1.0, 1.0)
        assert result.regime == "interior"
        assert result.attack_probability == pytest.approx(4e-12, rel=1e-3)
        assert result.residual <= 1e-15
        assert gap_evals <= 8

    def test_a_root_below_the_bracket_is_its_low_end(self, monkeypatch):
        result, gap_evals = self._counted_solve(
            monkeypatch, 50, 1.0, 1.0 - 1e-14, 1.0, 1.0)
        assert result.regime == "interior"
        assert result.attack_probability == math.exp(math.log(1e-12))
        assert gap_evals <= 3

    def test_a_root_within_rounding_of_one(self, monkeypatch):
        # p* = 1 - 4.8e-12: the analytic slope divides g's rounding by
        # 1 - p and comes out positive; bisecting in its place took 20
        # evaluations
        result, gap_evals = self._counted_solve(
            monkeypatch, 5168471, 1.0, 1.9348081860278767e-07, 1.0, 1.0)
        assert result.regime == "interior"
        assert result.attack_probability == pytest.approx(1.0 - 4.77e-12,
                                                          abs=1e-14)
        assert result.residual <= 3.18e-22
        assert gap_evals <= 8

    @pytest.mark.parametrize("field, args", [
        ("expected_reward", (3, math.inf, 0.05, 600.0, 3.0)),
        ("expected_reward", (3, math.nan, 0.05, 600.0, 3.0)),
        ("cost_rate", (3, 10.0, 0.0, 600.0, 3.0)),
        ("cost_rate", (3, 10.0, math.inf, 600.0, 3.0)),
        ("delay", (3, 10.0, 0.05, math.nan, 3.0)),
        ("delay", (3, 10.0, 0.05, -5.0, 3.0)),
        ("delay", (3, 10.0, 0.05, 0.0, 3.0)),
        ("speedup", (3, 10.0, 0.05, 600.0, 0.5)),
        ("speedup", (3, 10.0, 0.05, 600.0, math.nan)),
    ])
    def test_out_of_range_input_names_the_argument(self, field, args):
        with pytest.raises(ValueError, match=field):
            equilibrium_attack_probability(*args)


class TestPlayerCount:
    @pytest.mark.parametrize("n", [2.5, 0.5, math.nan, math.inf, -math.inf,
                                   0, -3, 0.0, "3", None, True])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            conditional_inverse_expectation(n, 0.5)
        # no-attack (E[V] <= cost) and past it
        for delay in (600.0, 60.0):
            with pytest.raises(ValueError, match="^n must be"):
                equilibrium_attack_probability(n, 10.0, 0.05, delay, 3.0)

    def test_the_cap_is_stated_and_kept(self):
        for call in (lambda n: conditional_inverse_expectation(n, 0.5),
                     lambda n: equilibrium_attack_probability(
                         n, 10.0, 0.05, 150.0, 3.0)):
            for n in (MAX_PLAYERS + 1, 10 ** 20, 10 ** 400):
                with pytest.raises(ValueError, match=r"^n must be .*1e\+09"):
                    call(n)
        # the window at the cap is ~3.8e5 terms, not 1e9
        value = conditional_inverse_expectation(MAX_PLAYERS, 0.5)
        assert value == pytest.approx(2.0 / MAX_PLAYERS, rel=1e-8)

    def test_integer_valued_float_solves_as_an_int(self, baseline_env):
        scenario = Scenario(baseline_env, Exponential(10.0), players=3.0)
        validate_scenario(scenario)
        assert conditional_inverse_expectation(3.0, 0.5) == \
            conditional_inverse_expectation(3, 0.5)
        for delay in (600.0, 400.0, 60.0):  # each regime
            args = (10.0, 0.05, delay, 3.0)
            result = equilibrium_attack_probability(scenario.players, *args)
            assert result == equilibrium_attack_probability(3, *args)
            assert type(result.expected_attackers) is float
