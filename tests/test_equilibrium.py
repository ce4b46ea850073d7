import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import esdp
from esdp import equilibrium
from esdp.core import Exponential, Scenario, validate_scenario
from esdp.equilibrium import (
    EquilibriumResult,
    attacker_payoff,
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


def oracle_binomial_pmf(n, p):
    """The pmf as it was built per call before the p-independent row was
    cached: the cached row must reproduce it bit for bit."""
    k = np.arange(n + 1)
    log_factorial = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    log_pmf = (log_factorial[n] - log_factorial - log_factorial[::-1]
               + k * math.log(p) + (n - k) * math.log1p(-p))
    return np.exp(log_pmf)


def oracle_conditional_inverse(n, p):
    if n == 1:
        return 1.0
    if p == 1.0:
        return 1.0 / n
    numerator = float(oracle_binomial_pmf(n, p)[1:]
                      @ (1.0 / np.arange(1, n + 1)))
    return numerator / -math.expm1(n * math.log1p(-p))


def oracle_equilibrium(n, expected_reward, cost_rate, delay, speedup):
    """200-step bisection on [1e-12, 1] over the oracle pmf."""
    cost = cost_rate * delay / speedup
    if expected_reward <= cost:
        return EquilibriumResult(0.0, 0.0, 0.0, "no-attack")

    def gap(p):
        return oracle_conditional_inverse(n, p) * expected_reward - cost

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


class TestAttackerPayoff:
    def test_solo_break_even(self):
        assert attacker_payoff(1, 10.0, 0.05, 600.0, 3.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_two_attackers_split_the_prize(self):
        # E[V]/2 - cT/delta = 5 - 2.5
        assert attacker_payoff(2, 10.0, 0.05, 150.0, 3.0) == pytest.approx(
            2.5, rel=1e-12)

    def test_crowded_attack_is_a_loss(self):
        assert attacker_payoff(10, 10.0, 0.05, 600.0, 3.0) == pytest.approx(
            -9.0, rel=1e-12)

    def test_zero_attackers_rejected(self):
        with pytest.raises(ValueError):
            attacker_payoff(0, 10.0, 0.05, 600.0, 3.0)


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
        # (1-p)^n = 1e-323 is subnormal here; compare the telescoped identity
        # E[1/K; K >= 1] = sum_j q^(n-j) (1 - q^j) / j, q = 1 - p
        n, p = 355, 0.8774
        log_q = math.log1p(-p)
        telescoped = math.fsum(
            math.exp((n - j) * log_q) * -math.expm1(j * log_q) / j
            for j in range(1, n + 1)) / -math.expm1(n * log_q)
        assert telescoped == pytest.approx(0.00321178, rel=1e-6)
        assert conditional_inverse_expectation(n, p) == pytest.approx(
            telescoped, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 50, 355, 501, 2000, 5000])
    def test_bit_identical_to_per_call_pmf(self, n):
        for p in (1e-12, 1e-6, 0.01, 0.3, 0.8774, 1.0 - 1e-9):
            assert conditional_inverse_expectation(n, p) == \
                oracle_conditional_inverse(n, p)

    @pytest.mark.parametrize("n", [3, 5000])
    def test_never_above_one_at_tiny_p(self, n):
        # the log-space pmf rounds the ratio past 1 here unless clamped
        assert conditional_inverse_expectation(n, 1e-300) == 1.0

    @given(n=st.integers(1, 5000), extra=st.integers(0, 100),
           p=st.floats(0.0, 1.0, exclude_min=True),
           q=st.floats(0.0, 1.0, exclude_min=True))
    def test_range_and_monotonicity_properties(self, n, extra, p, q):
        # 1e-10 covers the rounding of the log-space pmf (<= 7e-12 at n=5000)
        slack = 1.0 + 1e-10
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
        # interior p* from the Brent root agrees with the full-precision
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
            gap = oracle_conditional_inverse(n, p_star) * reward - cost
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

    def test_a_solve_builds_the_binomial_row_once(self, monkeypatch):
        row = equilibrium._binomial_row
        row.cache_clear()
        result, gap_evals = self._counted_solve(
            monkeypatch, 4001, 10.0, 0.05, 400.0, 3.0)
        assert result.regime == "interior"
        info = row.cache_info()
        assert info.misses == 1
        # every evaluation reads the row once, except the one at p = 1
        assert info.hits == gap_evals - 2
        for array in row(4001):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_an_interior_solve_spends_few_gap_evaluations(self, monkeypatch):
        # the bisection to full precision spent 66 here
        result, gap_evals = self._counted_solve(
            monkeypatch, 4001, 10.0, 0.05, 400.0, 3.0)
        assert result.regime == "interior"
        assert gap_evals <= 25

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


class TestLogFactorialTable:
    # the table grows at 50, 5000 and 12000 and serves 2, 4001 and 3 from
    # what it holds; with p outermost every call misses the one-row cache
    SWEEP = (50, 5000, 2, 4001, 12000, 3)
    PS = (1e-12, 0.01, 0.3, 1.0 - 1e-9)

    @pytest.fixture
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_TABLE", (np.empty(0),) * 3)
        equilibrium._binomial_row.cache_clear()

    def test_bit_identical_while_the_table_grows(self, empty_table):
        for p in self.PS:
            for n in self.SWEEP:
                assert conditional_inverse_expectation(n, p) == \
                    oracle_conditional_inverse(n, p)

    def test_a_sweep_over_n_spends_o_max_n_lgamma_calls(self, empty_table,
                                                        monkeypatch):
        calls = 0
        lgamma = math.lgamma

        def counted(x):
            nonlocal calls
            calls += 1
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", counted)
        for p in self.PS:
            for n in self.SWEEP:
                conditional_inverse_expectation(n, p)
        assert 0 < calls <= 2 * max(self.SWEEP) + 2
        for array in equilibrium._TABLE:
            assert array.size == calls
            assert not array.flags.writeable

    def test_import_builds_no_table(self):
        code = ("import math; calls = []; lgamma = math.lgamma; "
                "math.lgamma = lambda x: calls.append(x) or lgamma(x); "
                "import esdp; from esdp import equilibrium; "
                "print(len(calls), equilibrium._TABLE[0].size)")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=Path(esdp.__file__).parents[1]).stdout
        assert out.split() == ["0", "0"]


class TestPlayerCount:
    @pytest.mark.parametrize("n", [2.5, 0.5, math.nan, math.inf, -math.inf,
                                   0, -3, 0.0, "3", None])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be"):
            conditional_inverse_expectation(n, 0.5)
        # no-attack (E[V] <= cost) and past it
        for delay in (600.0, 60.0):
            with pytest.raises(ValueError, match="^n must be"):
                equilibrium_attack_probability(n, 10.0, 0.05, delay, 3.0)

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
