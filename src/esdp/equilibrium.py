"""Symmetric n-player attack game.

Each of n players independently decides whether to attack the round; with
k >= 1 attackers the prize is winner-takes-all, so an attacker's expected
profit is u(k) = E[V]/k - cost_rate*delay/speedup. A symmetric mixed
strategy with attack probability p makes the attacker count K binomial,
and indifference pins the equilibrium at

    E[1/K | K >= 1] * E[V] = cost_rate * delay / speedup.

The left side falls continuously from E[V] (as p -> 0) toward E[V]/n
(at p = 1), so the root is found by bisection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .thresholds import linear_threshold

__all__ = [
    "EquilibriumResult",
    "attacker_payoff",
    "conditional_inverse_expectation",
    "equilibrium_attack_probability",
    "strict_dominance_delay",
]

_BISECTION_STEPS = 200


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved symmetric equilibrium.

    regime is 'no-attack' (p*=0: attacking is unprofitable even alone),
    'interior' (p* in (0,1) solving the indifference condition, residual
    recorded), or 'saturated' (p*=1: attacking is profitable even with all
    n players in).
    """

    attack_probability: float
    expected_attackers: float
    per_attacker_profit: float
    regime: str
    residual: float = 0.0


def attacker_payoff(attackers: int, expected_reward: float, cost_rate: float,
                    delay: float, speedup: float) -> float:
    """Expected profit of one attacker when `attackers` attack in total:
    expected_reward/attackers - cost_rate*delay/speedup."""
    if attackers < 1:
        raise ValueError(f"attackers must be >= 1 (got {attackers})")
    return expected_reward / attackers - cost_rate * delay / speedup


@functools.lru_cache(maxsize=1)
def _binomial_row(n: int) -> tuple[np.ndarray, ...]:
    """The p-independent half of Binomial(n, p) over k = 0..n: log C(n, k),
    k, n - k, and the weights 1/k over k = 1..n. Every bisection step of a
    solve shares n, so one cached row serves the whole solve; the arrays
    are read-only because the cache hands out the same ones each time."""
    k = np.arange(n + 1, dtype=float)
    log_factorial = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    row = (log_factorial[n] - log_factorial - log_factorial[::-1],
           k, n - k, 1.0 / k[1:])
    for array in row:
        array.flags.writeable = False
    return row


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """pmf of Binomial(n, p) over k = 0..n, in log space so that no term
    passes through an underflowing (1-p)^n."""
    log_choose, k, n_minus_k, _ = _binomial_row(n)
    return np.exp(log_choose + k * math.log(p) + n_minus_k * math.log1p(-p))


def conditional_inverse_expectation(n: int, p: float) -> float:
    """Exact E[1/K | K >= 1] for K ~ Binomial(n, p).

    Lies in (0, 1]; equals 1 at n=1, decreases in p for n >= 2 and in n for
    fixed p (more rivals dilute the prize).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if not 0.0 < p <= 1.0:
        raise ValueError(
            f"p must be in (0, 1] (got {p}); K >= 1 has probability 0 at p=0")
    if n == 1:
        return 1.0  # K is identically 1 given K >= 1
    if p == 1.0:
        return 1.0 / n
    numerator = float(_binomial_pmf(n, p)[1:] @ _binomial_row(n)[3])
    at_least_one = -math.expm1(n * math.log1p(-p))
    return numerator / at_least_one


def equilibrium_attack_probability(n: int, expected_reward: float,
                                   cost_rate: float, delay: float,
                                   speedup: float) -> EquilibriumResult:
    """Solve the symmetric mixed equilibrium of the n-player attack game.

    Below the single-attacker break-even (E[V] <= cost, equality resolved
    to the defender's side) nobody attacks. Above it, the indifference
    condition is solved by bisection on [1e-12, 1]; when even p=1 leaves
    attacking strictly profitable the game saturates at p*=1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if not 0.0 <= expected_reward < math.inf:
        raise ValueError(
            f"expected_reward must be finite and >= 0 (got {expected_reward})")
    if not 0.0 < cost_rate < math.inf:
        raise ValueError(f"cost_rate must be finite and > 0 (got {cost_rate})")
    if not 0.0 < delay < math.inf:
        raise ValueError(f"delay must be finite and > 0 (got {delay})")
    if not 1.0 <= speedup < math.inf:
        raise ValueError(f"speedup must be finite and >= 1 (got {speedup})")
    cost = cost_rate * delay / speedup

    if expected_reward <= cost:
        return EquilibriumResult(attack_probability=0.0,
                                 expected_attackers=0.0,
                                 per_attacker_profit=0.0,
                                 regime="no-attack")

    def gap(p: float) -> float:
        return conditional_inverse_expectation(n, p) * expected_reward - cost

    full = gap(1.0)
    if full > 0.0:
        return EquilibriumResult(attack_probability=1.0,
                                 expected_attackers=float(n),
                                 per_attacker_profit=full,
                                 regime="saturated",
                                 residual=abs(full))

    lo, hi = 1e-12, 1.0  # gap(lo) > 0 since E[1/K|K>=1] -> 1, gap(hi) <= 0
    for _ in range(_BISECTION_STEPS):
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
    return EquilibriumResult(attack_probability=p_star,
                             expected_attackers=n * p_star,
                             per_attacker_profit=0.0,
                             regime="interior",
                             residual=abs(gap(p_star)))


def strict_dominance_delay(speedup: float, cost_rate: float,
                           expected_reward: float) -> float:
    """Smallest delay at which honest behavior strictly dominates attacking
    for every player count: the single-attacker break-even
    (speedup/cost_rate)*E[V]. At or above it the equilibrium is no-attack
    for every n."""
    return linear_threshold(speedup, cost_rate, expected_reward)
