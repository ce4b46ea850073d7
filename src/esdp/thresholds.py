"""Closed-form required-delay calculators.

Every security condition reduces, under the commit-or-don't attack model,
to a delay bound of the shape T >= (speedup / effective_cost) * effective_reward.
The functions here evaluate each bound exactly; :func:`esdp` runs every
condition a scenario's modifiers activate and reports the binding maximum
(the Economically Secure Delay Parameter).

A round with delay T is economically secure against the plain rational
attacker iff T >= linear_threshold(...): expected profit of a full
evaluation is reward - cost_rate*T/speedup, non-positive exactly on that
half-line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Exponential,
    Scenario,
    ThresholdReport,
    validate_scenario,
)

__all__ = [
    "MomentBounds",
    "ParameterIntervals",
    "expected_profit",
    "linear_threshold",
    "robust_interval_threshold",
    "epsilon_robust_threshold",
    "composition_threshold",
    "multiround_threshold",
    "multiround_threshold_subsets",
    "grinding_threshold",
    "expected_max_exponential",
    "abort_threshold",
    "coalition_threshold",
    "esdp",
]


@dataclass(frozen=True)
class MomentBounds:
    """Moment-only knowledge of the reward: E[V] <= mean_max,
    Std[V] <= std_max, with tolerated positive-profit probability epsilon."""

    mean_max: float
    std_max: float
    epsilon: float

    def violations(self) -> list[str]:
        out = []
        if not self.mean_max >= 0.0:
            out.append(f"mean_max must be >= 0 (got {self.mean_max})")
        if not self.std_max >= 0.0:
            out.append(f"std_max must be >= 0 (got {self.std_max})")
        if not 0.0 < self.epsilon <= 1.0:
            out.append(f"epsilon must be in (0, 1] (got {self.epsilon})")
        return out


@dataclass(frozen=True)
class ParameterIntervals:
    """Interval knowledge of the environment: speedup <= speedup_max,
    cost rate >= cost_min, reward <= reward_max almost surely."""

    speedup_max: float
    cost_min: float
    reward_max: float

    def violations(self) -> list[str]:
        out = []
        if not self.speedup_max >= 1.0:
            out.append(f"speedup_max must be >= 1 (got {self.speedup_max})")
        if not self.cost_min > 0.0:
            out.append(f"cost_min must be > 0 (got {self.cost_min})")
        if not self.reward_max >= 0.0:
            out.append(f"reward_max must be >= 0 (got {self.reward_max})")
        return out


def _check(violations: list[str]) -> None:
    if violations:
        raise ValueError("; ".join(violations))


def _bound(speedup, cost_rate, reward, members=1, cost_factor=1.0,
           leverage=0.0):
    """speedup * members / (cost_rate * cost_factor) * reward / (1 - leverage),
    the bound of every condition: a coalition of `members` shares the cost,
    grinding scales it by `cost_factor`, selective abort amplifies the reward."""
    return speedup * members / (cost_rate * cost_factor) * reward / (
        1.0 - leverage)


def _total(values) -> float:
    """Exact sum of nonnegative finite rewards; a sum past the float range
    is an infinite effective reward, which no finite delay secures."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def expected_profit(delay: float, speedup: float, cost_rate: float,
                    reward: float) -> float:
    """Expected profit of committing to a full evaluation:
    reward - cost_rate*delay/speedup (USD)."""
    return reward - cost_rate * delay / speedup


def linear_threshold(speedup: float, cost_rate: float,
                     expected_reward: float) -> float:
    """Break-even delay (speedup/cost_rate)*E[V]; the round is secure for
    every delay at or above it and insecure strictly below."""
    return _bound(speedup, cost_rate, expected_reward)


def robust_interval_threshold(iv: ParameterIntervals) -> float:
    """Delay secure across every parameter vector inside the intervals:
    (speedup_max/cost_min)*reward_max."""
    _check(iv.violations())
    return _bound(iv.speedup_max, iv.cost_min, iv.reward_max)


def epsilon_robust_threshold(iv: ParameterIntervals,
                             mb: MomentBounds) -> float:
    """(speedup_max/cost_min)*(mean_max + std_max/sqrt(epsilon)).

    At or above this delay, Chebyshev's inequality caps the probability of
    a positive-profit attack attempt at epsilon per round, using only the
    moment bounds (reward_max in `iv` is not consulted).
    """
    _check(iv.violations() + mb.violations())
    return _bound(iv.speedup_max, iv.cost_min,
                  mb.mean_max + mb.std_max / math.sqrt(mb.epsilon))


def composition_threshold(speedup: float, cost_rate: float,
                          protocol_means) -> float:
    """Delay secure when one beacon output feeds several protocols.

    The adversary coordinates across all of them, so the bound sums the
    per-protocol expected rewards; a sum past the float range needs an
    infinite delay.
    """
    means = list(protocol_means)
    if not means:
        raise ValueError("protocol_means must be non-empty")
    if any(not m >= 0.0 for m in means):
        raise ValueError("protocol_means must all be >= 0")
    return _bound(speedup, cost_rate, _total(means))


def multiround_threshold(speedup: float, cost_rate: float,
                         prefix_means) -> float:
    """Per-round delay keeping a horizon of rounds cumulatively unprofitable.

    prefix_means[k-1] must be E[V_1 + ... + V_k]; the bound is
    (speedup/cost_rate) * max_k prefix_means[k-1] / k. For i.i.d. rounds the
    maximum sits at k=1 and the bound equals the single-round one.
    """
    prefix = list(prefix_means)
    if not prefix:
        raise ValueError("prefix_means must be non-empty")
    if any(not m >= 0.0 for m in prefix):
        raise ValueError("prefix_means must all be >= 0")
    if any(b < a for a, b in zip(prefix, prefix[1:])):
        raise ValueError("prefix_means must be non-decreasing "
                         "(sums of nonnegative rewards cannot shrink)")
    per_round = max(p / k for k, p in enumerate(prefix, start=1))
    return _bound(speedup, cost_rate, per_round)


def multiround_threshold_subsets(speedup: float, cost_rate: float,
                                 round_means) -> float:
    """Variant quantifying over arbitrary attacked-round subsets, given the
    individual per-round means. By linearity the worst size-k subset is the
    k largest means, so the bound is (speedup/cost_rate) * max_k
    mean-of-k-largest; equals :func:`multiround_threshold` on sorted
    prefixes and exceeds it when rewards are back-loaded."""
    means = list(round_means)
    if not means:
        raise ValueError("round_means must be non-empty")
    if any(not m >= 0.0 for m in means):
        raise ValueError("round_means must all be >= 0")
    ordered = sorted(means, reverse=True)
    best = max(_total(ordered[:k]) / k for k in range(1, len(ordered) + 1))
    return _bound(speedup, cost_rate, best)


def grinding_threshold(speedup: float, cost_rate: float, grinding_size: int,
                       expected_max_reward: float,
                       cost_exponent: float = 1.0) -> float:
    """Delay bound with G candidate seeds explored in parallel:
    (speedup / (cost_rate * G**cost_exponent)) * E[max reward over G seeds].

    cost_exponent 1 models G fully parallel paid streams; 0.5 models
    partially shared hardware. Note the bound need not grow with G: it
    does only while E[V_max] outpaces the cost denominator, which is why
    reports carry the whole curve rather than a single monotone figure.
    """
    if grinding_size < 1:
        raise ValueError(f"grinding_size must be >= 1 (got {grinding_size})")
    if not 0.0 <= cost_exponent <= 1.0:
        raise ValueError(
            f"cost_exponent must be in [0, 1] (got {cost_exponent})")
    return _bound(speedup, cost_rate, expected_max_reward,
                  cost_factor=float(grinding_size) ** cost_exponent)


def expected_max_exponential(mean: float, draws: int) -> float:
    """E[max of `draws` i.i.d. exponential rewards] = mean * H_draws."""
    if mean < 0.0:
        raise ValueError(f"mean must be >= 0 (got {mean})")
    if draws < 1:
        raise ValueError(f"draws must be >= 1 (got {draws})")
    return Exponential(mean).expected_max(draws)


def abort_threshold(speedup: float, cost_rate: float, expected_reward: float,
                    abort_probability: float) -> float:
    """Delay bound under selective abort: suppressing unfavorable outputs
    with leverage probability p amplifies the reward to E[V]/(1-p)."""
    if not 0.0 <= abort_probability < 1.0:
        raise ValueError("abort_probability must be in [0, 1) "
                         f"(got {abort_probability})")
    return _bound(speedup, cost_rate, expected_reward,
                  leverage=abort_probability)


def coalition_threshold(speedup: float, cost_rate: float, coalition_size: int,
                        expected_reward: float) -> float:
    """Delay bound against a cost-sharing coalition of `coalition_size`
    members: each pays cost_rate/m, so the bound scales by m."""
    if coalition_size < 1:
        raise ValueError(
            f"coalition_size must be >= 1 (got {coalition_size})")
    return _bound(speedup, cost_rate, expected_reward,
                  members=float(coalition_size))


def esdp(scenario: Scenario,
         candidate_delay: float | None = None) -> ThresholdReport:
    """Evaluate every condition the scenario's modifiers activate and report
    the Economically Secure Delay Parameter (their maximum).

    The plain linear condition is always included; grinding, abort,
    coalition, composition and multi-round conditions join it when the
    corresponding modifier departs from its default. Conditions are
    independent lower bounds on the delay, per the max-of-bounds design
    rule; the first row at the maximum is the binding one. With
    `candidate_delay` given, the verdict is secure iff the candidate is at
    or above the ESDP (secure at exact equality).
    """
    if candidate_delay is not None and not 0.0 <= candidate_delay < math.inf:
        raise ValueError(
            f"candidate_delay must be finite and >= 0 (got {candidate_delay})")
    s = validate_scenario(scenario)
    env, reward, horizon = s.env, s.reward, s.env.honest_delay
    rewards: dict[str, float] = {}
    mean = lambda: rewards["linear"]  # E[V], evaluated once by that row
    # name, active, effective reward, members, cost factor, leverage
    rows = (
        ("linear", True, lambda: reward.mean(horizon=horizon), 1, 1.0, 0.0),
        ("grinding", s.grinding_size > 1,
         lambda: reward.expected_max(s.grinding_size, horizon=horizon),
         1, float(s.grinding_size) ** s.grinding_cost_exponent, 0.0),
        ("abort", s.abort_probability > 0.0, mean, 1, 1.0,
         s.abort_probability),
        ("coalition", s.coalition_size > 1, mean, float(s.coalition_size),
         1.0, 0.0),
        ("composition", bool(s.protocol_means),
         lambda: _total(s.protocol_means), 1, 1.0, 0.0),
        # i.i.d. rounds make max_k k*E[V]/k equal to E[V]
        ("multiround", s.rounds > 1, mean, 1, 1.0, 0.0),
    )
    required: dict[str, float] = {}
    for name, active, effective_reward, members, cost_factor, leverage in rows:
        if active:
            try:
                rewards[name] = effective_reward()
                required[name] = _bound(env.speedup, env.cost_rate,
                                        rewards[name], members, cost_factor,
                                        leverage)
            except Exception as exc:
                raise ValueError(f"{name}: {exc}") from exc

    esdp_value = max(required.values())
    binding = next(name for name, value in required.items()
                   if value == esdp_value)
    secure = None if candidate_delay is None else candidate_delay >= esdp_value
    return ThresholdReport(required_delays=required,
                           binding_condition=binding,
                           esdp=esdp_value,
                           evaluated_delay=candidate_delay,
                           secure=secure)
