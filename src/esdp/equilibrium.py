"""Symmetric n-player attack game.

Each of n players independently decides whether to attack the round; with
k >= 1 attackers the prize is winner-takes-all, so an attacker's expected
profit is u(k) = E[V]/k - cost_rate*delay/speedup. A symmetric mixed
strategy with attack probability p makes the attacker count K binomial,
and indifference pins the equilibrium at

    g(p) * E[V] = cost_rate * delay / speedup,   g(p) = E[1/K | K >= 1].

g falls continuously from 1 (as p -> 0) to 1/n (at p = 1). It is the
ratio sum w_k/k / sum w_k of binomial weights w_k, unnormalized, over the
window k in [max(1, mu - t), min(n, mu + t)], where mu = np,
sigma^2 = np(1 - p) and t = 12 sigma + 48. Bernstein's inequality bounds
the mass outside the window by 2 exp(-72) ~ 1e-31, under 1e-30 of the
mass of K >= 1. The weights are two cumulative products of
w_{k+1}/w_k = (n - k)/(k + 1) * p/(1 - p), outward from the mode, so none
exceeds 1 and none overflows. The window holds at most 12 sqrt(n) + 97
terms, which `core.MAX_PLAYERS` bounds.

The root is found by Newton's method in x = log p on
log g - log(cost/E[V]), inside the bracket [log 1e-12, 0]. The slope comes
with each evaluation of g:

    d log g / d log p = (1/g - E[K | K >= 1]) / (1 - p),
    E[K | K >= 1] = np / (1 - (1 - p)^n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import MAX_PLAYERS, as_count

__all__ = [
    "EquilibriumResult",
    "conditional_inverse_expectation",
    "equilibrium_attack_probability",
]

_MAX_GAP_EVALS = 100
_LOWEST = math.log(1e-12)  # the bracket's low end in x = log p


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


def _players(n) -> int:
    """The player count n under the one count rule, capped at MAX_PLAYERS."""
    return as_count(n, "n", cap=MAX_PLAYERS, whole_floats=True)


def conditional_inverse_expectation(n: int, p: float) -> float:
    """E[1/K | K >= 1] for K ~ Binomial(n, p), to a few ulps.

    Lies in (0, 1]; equals 1 at n=1, decreases in p for n >= 2 and in n for
    fixed p (more rivals dilute the prize).
    """
    n = _players(n)
    if not 0.0 < p <= 1.0:
        raise ValueError(
            f"p must be in (0, 1] (got {p}); K >= 1 has probability 0 at p=0")
    if n == 1:
        return 1.0  # K is identically 1 given K >= 1
    if p == 1.0:
        return 1.0 / n
    import numpy as np
    q = 1.0 - p
    mean = n * p
    reach = 12.0 * math.sqrt(mean * q) + 48.0
    low = max(1, math.ceil(mean - reach))
    high = min(n, math.floor(mean + reach))
    k = np.arange(low, high + 1.0)
    ratio = n - k[:-1]  # w_{k+1}/w_k = (n - k)/(k + 1) * p/q
    ratio /= k[1:]
    ratio *= p / q
    # the index in k of the mode, floor((n + 1)p), or of the window's end
    # nearest to it: the largest weight
    mode = min(max(math.floor(mean + p), low), high) - low
    w = np.empty_like(k)
    w[mode] = 1.0
    np.multiply.accumulate(ratio[mode:], out=w[mode + 1:])
    if mode:  # below the mode each ratio is >= 1, so its inverse is safe
        np.multiply.accumulate(1.0 / ratio[mode - 1::-1], out=w[mode - 1::-1])
    # each w_k/k <= w_k, so the ratio cannot round past 1
    return float(np.dot(w, 1.0 / k)) / float(np.add.reduce(w))


def equilibrium_attack_probability(n: int, expected_reward: float,
                                   cost_rate: float, delay: float,
                                   speedup: float) -> EquilibriumResult:
    """Solve the symmetric mixed equilibrium of the n-player attack game.

    Below the single-attacker break-even (E[V] <= cost, equality resolved
    to the defender's side) nobody attacks. When even p=1 leaves attacking
    strictly profitable the game saturates at p*=1. Otherwise the
    indifference condition is solved by Newton's method in x = log p on
    [log 1e-12, 0], to a few ulps of x; `residual` is the indifference gap
    left at p*.
    """
    n = _players(n)
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

    full = conditional_inverse_expectation(n, 1.0) * expected_reward - cost
    if full > 0.0:
        return EquilibriumResult(attack_probability=1.0,
                                 expected_attackers=float(n),
                                 per_attacker_profit=full,
                                 regime="saturated",
                                 residual=abs(full))

    p_star, gap = _newton(n, expected_reward, cost)
    return EquilibriumResult(attack_probability=p_star,
                             expected_attackers=n * p_star,
                             per_attacker_profit=0.0,
                             regime="interior",
                             residual=abs(gap))


def _newton(n: int, expected_reward: float,
            cost: float) -> tuple[float, float]:
    """(p*, indifference gap at p*) for g(p*) = cost/E[V] = c, given
    1/n <= c < 1, by Newton's method in x = log p on f = log g - log c.

    It starts from the smaller of the two roots that the asymptotes
    1/g ~ 1 + (n - 1)p/4 (np small) and 1/g ~ (n + 1)p - 1 (np large)
    give. Where rounding gives the slope the wrong sign (p* within about
    eps n of 1), the secant through the previous point stands in for it.
    Each step stays strictly inside the bracket of the points
    evaluated so far, or else bisects it (in log(-x), see below); a step
    below log 1e-12 goes to log 1e-12, which is p* when f <= 0 there. It
    stops when the step or the bracket is under 2 eps (1 + |x|), a few ulps
    of x, or when |f| <= eps, the rounding of g: where g is that flat the
    root is no sharper. At most _MAX_GAP_EVALS evaluations of g."""
    c = cost / expected_reward
    start = min(4.0 * (1.0 - c) / (c * (n - 1.0)),
                (1.0 + c) / (c * (n + 1.0)))
    # x = low has f > 0 once seen; p = exp(high) starts as the largest
    # float below 1, so that an interior p* stays below 1
    low, high = -math.inf, -0.5 * math.ulp(1.0)
    x = min(math.log(max(start, 1e-12)), high)
    x_last = f_last = math.nan
    for _ in range(_MAX_GAP_EVALS):
        p = math.exp(x)
        g = conditional_inverse_expectation(n, p)
        f = math.log(g) - math.log(c)
        slope = (1.0 / g - n * p / -math.expm1(n * math.log1p(-p))) / (1.0 - p)
        if not slope < 0.0:  # rounding flipped it: the secant's, if any
            slope = (f - f_last) / (x - x_last)
        step = -f / slope if slope < 0.0 else math.nan
        x_last, f_last = x, f
        ulps = 2.0 * math.ulp(1.0) * (1.0 - x)
        if f == 0.0 or abs(f) <= math.ulp(1.0) or (x == _LOWEST and f < 0.0) \
                or abs(step) <= ulps:
            break
        if f > 0.0:
            low = x
        else:
            high = x
        if high - low <= ulps:
            break
        x = max(x + step, _LOWEST)  # max keeps a nan step's nan
        if not low < x < high:  # a step out of the bracket, or no step:
            # bisect log(-x), which resolves p near 1 as well as near 0
            x = -math.sqrt(max(low, _LOWEST) * high)
    return p, g * expected_reward - cost
