"""Closed-form required-delay calculators.

Every security condition reduces, under the commit-or-don't attack model,
to a delay bound of the shape T >= (speedup / effective_cost) * effective_reward.
The functions here evaluate each bound exactly; :func:`esdp` calls the
function of every condition a scenario's modifiers activate and reports
the binding maximum (the Economically Secure Delay Parameter).

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
    all_in_range,
    as_count,
    check_violations,
    in_range,
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
        in_range(self.mean_max, "mean_max", 0.0, math.inf, "[]", out)
        in_range(self.std_max, "std_max", 0.0, math.inf, "[]", out)
        in_range(self.epsilon, "epsilon", 0.0, 1.0, "(]", out)
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
        in_range(self.speedup_max, "speedup_max", 1.0, out=out)
        in_range(self.cost_min, "cost_min", 0.0, ends="()", out=out)
        in_range(self.reward_max, "reward_max", 0.0, math.inf, "[]", out)
        return out


def _bound(speedup, cost_rate, reward, name, members=1, cost_factor=1.0,
           leverage=0.0):
    """speedup * members / (cost_rate * cost_factor) * reward / (1 - leverage),
    the bound of every condition: a coalition of `members` shares the cost,
    grinding scales it by `cost_factor`, selective abort amplifies the reward.
    It checks every helper's inputs: the reward, named `name`, may be +inf,
    since a reward past the float range needs an infinite delay."""
    in_range(speedup, "speedup", 1.0)
    in_range(cost_rate, "cost_rate", 0.0, ends="()")
    in_range(leverage, "abort_probability", 0.0, 1.0)
    in_range(reward, name, 0.0, math.inf, "[]")
    return speedup * members / (cost_rate * cost_factor) * reward / (
        1.0 - leverage)


def _total(values) -> float:
    """Exact sum of nonnegative rewards; a sum past the float range
    is an infinite effective reward, which no finite delay secures."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def expected_profit(delay: float, speedup: float, cost_rate: float,
                    reward: float) -> float:
    """Expected profit of committing to a full evaluation:
    reward - cost_rate*delay/speedup (USD)."""
    in_range(delay, "delay", 0.0)
    _bound(speedup, cost_rate, reward, "reward")  # checks the others
    return reward - cost_rate * delay / speedup


def linear_threshold(speedup: float, cost_rate: float,
                     expected_reward: float) -> float:
    """Break-even delay (speedup/cost_rate)*E[V]; the round is secure for
    every delay at or above it and insecure strictly below."""
    return _bound(speedup, cost_rate, expected_reward, "expected_reward")


def robust_interval_threshold(iv: ParameterIntervals) -> float:
    """Delay secure across every parameter vector inside the intervals:
    (speedup_max/cost_min)*reward_max."""
    check_violations(iv.violations())
    return _bound(iv.speedup_max, iv.cost_min, iv.reward_max, "reward_max")


def epsilon_robust_threshold(iv: ParameterIntervals,
                             mb: MomentBounds) -> float:
    """(speedup_max/cost_min)*(mean_max + std_max/sqrt(epsilon)).

    At or above this delay, Chebyshev's inequality caps the probability of
    a positive-profit attack attempt at epsilon per round, using only the
    moment bounds (reward_max in `iv` is not consulted).
    """
    check_violations(iv.violations() + mb.violations())
    return _bound(iv.speedup_max, iv.cost_min,
                  mb.mean_max + mb.std_max / math.sqrt(mb.epsilon), "moments")


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
    all_in_range(means, "protocol_means", 0.0, math.inf, "[]")
    return _bound(speedup, cost_rate, _total(means), "protocol_means")


def multiround_threshold(speedup: float, cost_rate: float,
                         prefix_means) -> float:
    """Per-round delay keeping a horizon of rounds cumulatively unprofitable.

    prefix_means[k-1] must be E[V_1 + ... + V_k]; the bound is
    (speedup/cost_rate) * max_k prefix_means[k-1] / k. For i.i.d. rounds the
    maximum sits at k=1 and the bound equals the single-round one. Against
    an attacker who picks the rounds, pass the sums of the k largest means.
    """
    prefix = list(prefix_means)
    if not prefix:
        raise ValueError("prefix_means must be non-empty")
    all_in_range(prefix, "prefix_means", 0.0, math.inf, "[]")
    if any(b < a for a, b in zip(prefix, prefix[1:])):
        raise ValueError("prefix_means must be non-decreasing "
                         "(sums of nonnegative rewards cannot shrink)")
    per_round = max(p / k for k, p in enumerate(prefix, start=1))
    return _bound(speedup, cost_rate, per_round, "prefix_means")


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
    size = as_count(grinding_size, "grinding_size", whole_floats=True)
    in_range(cost_exponent, "cost_exponent", 0.0, 1.0, "[]")
    return _bound(speedup, cost_rate, expected_max_reward,
                  "expected_max_reward",
                  cost_factor=float(size) ** cost_exponent)


def expected_max_exponential(mean: float, draws: int) -> float:
    """E[max of `draws` i.i.d. exponential rewards] = mean * H_draws."""
    in_range(mean, "mean", 0.0)
    return Exponential(mean).expected_max(as_count(draws, "draws"))


def abort_threshold(speedup: float, cost_rate: float, expected_reward: float,
                    abort_probability: float) -> float:
    """Delay bound under selective abort: suppressing unfavorable outputs
    with leverage probability p amplifies the reward to E[V]/(1-p)."""
    return _bound(speedup, cost_rate, expected_reward, "expected_reward",
                  leverage=abort_probability)


def coalition_threshold(speedup: float, cost_rate: float, coalition_size: int,
                        expected_reward: float) -> float:
    """Delay bound against a cost-sharing coalition of `coalition_size`
    members: each pays cost_rate/m, so the bound scales by m."""
    members = as_count(coalition_size, "coalition_size", whole_floats=True)
    return _bound(speedup, cost_rate, expected_reward, "expected_reward",
                  members=float(members))


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
    if candidate_delay is not None:
        in_range(candidate_delay, "candidate_delay", 0.0)
    s = validate_scenario(scenario)
    speedup, cost, horizon = s.env.speedup, s.env.cost_rate, s.env.honest_delay
    mean = math.nan  # E[V], set by the linear row, which runs first

    def linear() -> float:
        nonlocal mean
        mean = s.reward.mean(horizon=horizon)
        return linear_threshold(speedup, cost, mean)

    rows = (
        ("linear", True, linear),
        ("grinding", s.grinding_size > 1, lambda: grinding_threshold(
            speedup, cost, s.grinding_size,
            s.reward.expected_max(int(s.grinding_size), horizon=horizon),
            s.grinding_cost_exponent)),
        ("abort", s.abort_probability > 0.0, lambda: abort_threshold(
            speedup, cost, mean, s.abort_probability)),
        ("coalition", s.coalition_size > 1, lambda: coalition_threshold(
            speedup, cost, s.coalition_size, mean)),
        ("composition", bool(s.protocol_means), lambda: composition_threshold(
            speedup, cost, s.protocol_means)),
        # i.i.d. rounds: the prefix means k*E[V] peak per round at k=1
        ("multiround", s.rounds > 1, lambda: multiround_threshold(
            speedup, cost, (mean,))),
    )
    required: dict[str, float] = {}
    for name, active, bound in rows:
        if active:
            try:
                required[name] = bound()
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
