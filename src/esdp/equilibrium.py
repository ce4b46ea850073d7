"""Symmetric n-player attack game.

Each of n players independently decides whether to attack the round; with
k >= 1 attackers the prize is winner-takes-all, so an attacker's expected
profit is u(k) = E[V]/k - cost_rate*delay/speedup. A symmetric mixed
strategy with attack probability p makes the attacker count K binomial,
and indifference pins the equilibrium at

    E[1/K | K >= 1] * E[V] = cost_rate * delay / speedup.

The left side falls continuously from E[V] (as p -> 0) toward E[V]/n
(at p = 1), so the root is bracketed on [1e-12, 1] and found by Brent's
method in log p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EquilibriumResult",
    "attacker_payoff",
    "conditional_inverse_expectation",
    "equilibrium_attack_probability",
]

_MAX_GAP_EVALS = 100


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


# (log k!, k, 1/k) for k = 0..size-1, read-only and shared by every solve in
# the process. log k! depends on k alone, so the table only ever grows, and
# only on demand: nothing is computed at import. One tuple, replaced whole,
# so a reader never sees arrays of different sizes.
_TABLE: tuple[np.ndarray, ...] = (np.empty(0),) * 3


def _table(n: int) -> tuple[np.ndarray, ...]:
    """The process-wide table, grown to cover k = 0..n if it does not yet.
    It grows to at least twice its size, so a sweep over n spends at most
    2 max(n) lgamma calls in total and copies the table O(log n) times."""
    global _TABLE
    table = _TABLE
    size = table[0].size
    if n < size:
        return table
    grown = max(n + 1, 2 * size)
    log_factorial = np.concatenate((table[0], np.fromiter(
        map(math.lgamma, range(size + 1, grown + 1)), float, grown - size)))
    k = np.arange(grown, dtype=float)
    inverse = np.full(grown, math.inf)  # 1/0 is never read
    np.divide(1.0, k[1:], out=inverse[1:])
    table = (log_factorial, k, inverse)
    for array in table:
        array.flags.writeable = False
    _TABLE = table
    return table


@functools.lru_cache(maxsize=1)
def _binomial_row(n: int) -> tuple[np.ndarray, ...]:
    """The p-independent half of Binomial(n, p) over k = 0..n: log C(n, k),
    k, n - k, and the weights 1/k over k = 1..n. Every root-finding step of
    a solve shares n, so one cached row serves the whole solve; the arrays
    are read-only because the cache hands out the same ones each time, and
    all but the first are views of the process-wide table."""
    log_factorial, k, inverse = _table(n)
    lf = log_factorial[:n + 1]
    log_choose = lf[n] - lf - lf[::-1]
    log_choose.flags.writeable = False
    return log_choose, k[:n + 1], k[n::-1], inverse[1:n + 1]


def _player_count(n) -> int:
    """n as an int; n must be an integer >= 1, an integer-valued float
    included and a bool not."""
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):  # nan, inf, not a number
        whole = None
    if isinstance(n, bool) or whole is None or whole != n or whole < 1:
        raise ValueError(f"n must be an integer >= 1 (got {n!r})")
    return whole


def conditional_inverse_expectation(n: int, p: float) -> float:
    """Exact E[1/K | K >= 1] for K ~ Binomial(n, p).

    Lies in (0, 1]; equals 1 at n=1, decreases in p for n >= 2 and in n for
    fixed p (more rivals dilute the prize).
    """
    n = _player_count(n)
    if not 0.0 < p <= 1.0:
        raise ValueError(
            f"p must be in (0, 1] (got {p}); K >= 1 has probability 0 at p=0")
    if n == 1:
        return 1.0  # K is identically 1 given K >= 1
    if p == 1.0:
        return 1.0 / n
    log_choose, k, n_minus_k, inverse_k = _binomial_row(n)
    # the pmf in log space, so that no term passes through an underflowing
    # (1-p)^n
    pmf = np.exp(log_choose + k * math.log(p) + n_minus_k * math.log1p(-p))
    numerator = float(pmf[1:] @ inverse_k)
    at_least_one = -math.expm1(n * math.log1p(-p))
    # the log-space pmf can round the ratio a few ulps past its bound
    return min(1.0, numerator / at_least_one)


def equilibrium_attack_probability(n: int, expected_reward: float,
                                   cost_rate: float, delay: float,
                                   speedup: float) -> EquilibriumResult:
    """Solve the symmetric mixed equilibrium of the n-player attack game.

    Below the single-attacker break-even (E[V] <= cost, equality resolved
    to the defender's side) nobody attacks. When even p=1 leaves attacking
    strictly profitable the game saturates at p*=1. Otherwise the
    indifference condition is solved by Brent's method in x = log p on
    [log 1e-12, 0], to a bracket a few ulps wide in p; `residual` is the
    indifference gap left at p*.
    """
    n = _player_count(n)
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

    x, value = _brent(lambda x: gap(math.exp(x)), math.log(1e-12), 0.0, full)
    p_star = math.exp(x)
    return EquilibriumResult(attack_probability=p_star,
                             expected_attackers=n * p_star,
                             per_attacker_profit=0.0,
                             regime="interior",
                             residual=abs(value))


def _brent(f, a: float, b: float, fb: float) -> tuple[float, float]:
    """Root of the decreasing f on [a, b], given fb = f(b) <= 0, by Brent's
    bracketing method (the brentq variant: secant or inverse quadratic
    steps, bisection whenever they would not shrink the bracket fast
    enough). Returns (x, f(x)) at a root hit exactly, or at the end with
    the smaller |f| of a bracket narrower than 4 eps (1 + |x|): a few ulps
    of x, and of p = exp(x) where x is near 0. When f(a) <= 0 there is no
    sign change and a is returned. Spends at most _MAX_GAP_EVALS
    evaluations of f."""
    eps = math.ulp(1.0)
    x_pre, f_pre = a, f(a)
    if f_pre <= 0.0:
        return x_pre, f_pre
    x_cur, f_cur = b, fb
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_MAX_GAP_EVALS - 1):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 2.0 * eps * (1.0 + abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            break
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) \
                    / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    return x_cur, f_cur
