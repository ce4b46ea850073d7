"""Seeded stochastic simulation and brute-force oracles.

Everything here is reproducible: a run is a pure function of (inputs,
SimConfig). Trials are generated in fixed-size blocks, each block drawing
from its own Philox stream keyed by (master seed, block index), so serial
and parallel executions produce identical results and per-block work can
be farmed out without coordination.

The profit functional simulated throughout is the realized
success_indicator * V_at_completion - integral of cost while computing,
with completion strictly before the honest reveal counting as success
(a tie at the reveal instant is a failure).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .core import Constant, MarkovOU, RewardModel, Scenario, validate_scenario

__all__ = [
    "SimConfig",
    "ProfitEstimate",
    "TailEstimate",
    "MomentEstimate",
    "ConditionalInverseEstimate",
    "simulate_reward_path",
    "commit_profit_samples",
    "profit_estimate",
    "rollout_policy",
    "estimate_tail_probability",
    "grinding_max_oracle",
    "equilibrium_empirical_check",
    "write_trials_csv",
]

_BLOCK = 4096


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs: trial count, path time step (seconds), master
    seed, and the confidence level used for interval reporting."""

    trials: int = 10_000
    time_step: float = 1.0
    seed: int = 0
    confidence: float = 0.99

    def violations(self) -> list[str]:
        out = []
        if not (float(self.trials).is_integer() and self.trials >= 1):
            out.append(f"trials must be a positive integer (got {self.trials})")
        if not self.time_step > 0.0:
            out.append(f"time_step must be > 0 (got {self.time_step})")
        if not 0.0 < self.confidence < 1.0:
            out.append(f"confidence must be in (0, 1) (got {self.confidence})")
        if not 0 <= self.seed < 2 ** 64:
            out.append(f"seed must be in [0, 2**64) (got {self.seed})")
        return out


def _check_config(cfg: SimConfig) -> None:
    violations = cfg.violations()
    if violations:
        raise ValueError("; ".join(violations))


def _substream(seed: int, block: int) -> np.random.Generator:
    # distinct 128-bit Philox keys per (seed, block): independent streams
    return np.random.Generator(
        np.random.Philox(key=int(seed) + (block << 64)))


def _blocks(trials: int):
    for block in range(math.ceil(trials / _BLOCK)):
        yield block, min(_BLOCK, trials - block * _BLOCK)


def _z_value(confidence: float) -> float:
    return statistics.NormalDist().inv_cdf(0.5 * (1.0 + confidence))


@dataclass(frozen=True)
class ProfitEstimate:
    """Sample statistics of per-trial profit (USD)."""

    mean: float
    std_error: float
    confidence_interval: tuple[float, float]
    positive_profit_fraction: float


@dataclass(frozen=True)
class TailEstimate:
    """Estimated P[profit > 0] with a normal-approximation interval."""

    fraction: float
    std_error: float
    confidence_interval: tuple[float, float]
    trials: int


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate of a scalar expectation."""

    value: float
    std_error: float
    trials: int


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


def profit_estimate(profits: np.ndarray, confidence: float) -> ProfitEstimate:
    """Normal-approximation summary of a profit sample."""
    profits = np.asarray(profits, dtype=float)
    mean = float(np.mean(profits))
    se = float(np.std(profits, ddof=1) / math.sqrt(profits.size)) \
        if profits.size > 1 else 0.0
    half = _z_value(confidence) * se
    return ProfitEstimate(
        mean=mean,
        std_error=se,
        confidence_interval=(mean - half, mean + half),
        positive_profit_fraction=float(np.mean(profits > 0.0)))


def simulate_reward_path(model: RewardModel, horizon: float,
                         cfg: SimConfig) -> np.ndarray:
    """Sample reward trajectories over [0, horizon].

    Returns an array of shape (trials, steps+1) sampled at multiples of
    cfg.time_step (final step shortened to land exactly on the horizon).
    Constant paths are flat; mean-reverting paths use the exact Gaussian
    transition reflected at 0. Distribution-only models have no path: for
    them the result has shape (trials, 1) holding one terminal draw each.
    """
    _check_config(cfg)
    if not horizon > 0.0:
        raise ValueError(f"horizon must be > 0 (got {horizon})")

    if isinstance(model, Constant):
        steps = _step_count(horizon, cfg.time_step)
        return np.full((cfg.trials, steps + 1), model.value, dtype=float)

    if not isinstance(model, MarkovOU):
        chunks = [model.sample(_substream(cfg.seed, block), size)[:, None]
                  for block, size in _blocks(cfg.trials)]
        return np.vstack(chunks)

    steps = _step_count(horizon, cfg.time_step)
    deltas = np.minimum(cfg.time_step,
                        horizon - cfg.time_step * np.arange(steps))
    out = np.empty((cfg.trials, steps + 1), dtype=float)
    row = 0
    for block, size in _blocks(cfg.trials):
        rng = _substream(cfg.seed, block)
        paths = np.empty((size, steps + 1), dtype=float)
        paths[:, 0] = model.initial
        for k, dt in enumerate(deltas):
            m = model.transition_mean(paths[:, k], dt)
            s = model.transition_std(dt)
            paths[:, k + 1] = np.abs(m + s * rng.standard_normal(size))
        out[row:row + size] = paths
        row += size
    return out


def _step_count(horizon: float, dt: float) -> int:
    return max(1, math.ceil(horizon / dt - 1e-9))


def commit_profit_samples(scenario: Scenario, cfg: SimConfig,
                          delay: float | None = None):
    """Per-trial outcome of the commit-to-full-evaluation strategy.

    Returns (profits, successes, stop_times). The adversary runs for
    delay/speedup seconds at the configured cost rate and collects one
    terminal reward draw on success; with speedup exactly 1 it finishes at
    the honest reveal, which the strict success rule counts as failure.
    """
    scenario = validate_scenario(scenario)
    _check_config(cfg)
    env = scenario.env
    T = env.honest_delay if delay is None else delay
    if not 0.0 < T < math.inf:
        raise ValueError(f"delay must be finite and > 0 (got {T})")
    cost = env.cost_rate * T / env.speedup
    succeeds = env.speedup > 1.0  # completion at T/speedup < T

    chunks = [scenario.reward.sample(_substream(cfg.seed, block), size,
                                     horizon=T)
              for block, size in _blocks(cfg.trials)]
    rewards = np.concatenate(chunks)
    profits = (rewards if succeeds else 0.0) - cost
    successes = np.full(cfg.trials, succeeds, dtype=bool)
    stop_times = np.full(cfg.trials, env.seed_time + T / env.speedup)
    return profits, successes, stop_times


def rollout_policy(policy_grid, scenario: Scenario,
                   cfg: SimConfig) -> ProfitEstimate:
    """Simulate the adversary following a solved compute/idle policy on
    fresh reward paths and summarize the realized profit.

    The rollout advances on the policy grid's own time step, accrues
    cost_rate per second while computing, and pays out the current reward
    on completion strictly before the honest reveal. Requires the same
    scenario the policy was solved for.
    """
    _check_config(cfg)
    scenario = validate_scenario(scenario)
    if scenario != policy_grid.scenario:
        raise ValueError("policy grid was solved for a different scenario")
    env = scenario.env
    model = scenario.reward
    compute = policy_grid.compute
    v_values = policy_grid.v_values
    n_s, n_v, n_t = compute.shape
    final_work = n_s - 1          # index of the completed (s = 0) state
    horizon_idx = n_t - 1         # honest reveal time index
    dt = policy_grid.spec.time_step
    step_cost = env.cost_rate * dt
    dv = v_values[1] - v_values[0] if n_v > 1 else 0.0

    is_ou = isinstance(model, MarkovOU)
    v0 = model.mean()

    profits = np.empty(cfg.trials)
    row = 0
    for block, size in _blocks(cfg.trials):
        rng = _substream(cfg.seed, block)
        v = np.full(size, v0)
        work = np.zeros(size, dtype=np.intp)
        cost = np.zeros(size)
        reward = np.zeros(size)
        running = np.ones(size, dtype=bool)
        for k in range(horizon_idx):
            if not running.any():
                break
            if dv > 0.0:
                v_idx = np.clip(np.rint(v / dv), 0, n_v - 1).astype(np.intp)
            else:
                v_idx = np.zeros(size, dtype=np.intp)
            act = compute[work, v_idx, k] & running
            cost[act] += step_cost
            if is_ou:
                v = np.abs(model.transition_mean(v, dt)
                           + model.transition_std(dt)
                           * rng.standard_normal(size))
            work[act] += 1
            finished = act & (work == final_work)
            succeeded = finished & (k + 1 < horizon_idx)
            reward[succeeded] = v[succeeded]
            running &= ~finished
        profits[row:row + size] = reward - cost
        row += size
    return profit_estimate(profits, cfg.confidence)


def estimate_tail_probability(scenario: Scenario, delay: float,
                              cfg: SimConfig) -> TailEstimate:
    """Estimate P[V - cost_rate*delay/speedup > 0] by sampling terminal
    rewards; the empirical check of the moment-bound (Chebyshev) design
    rule. Requires a reward model with finite mean and variance."""
    scenario = validate_scenario(scenario)
    _check_config(cfg)
    env = scenario.env
    cost = env.cost_rate * delay / env.speedup
    positives = 0
    for block, size in _blocks(cfg.trials):
        draws = scenario.reward.sample(_substream(cfg.seed, block), size,
                                       horizon=delay)
        positives += int(np.count_nonzero(draws - cost > 0.0))
    fraction = positives / cfg.trials
    se = math.sqrt(fraction * (1.0 - fraction) / cfg.trials)
    half = _z_value(cfg.confidence) * se
    return TailEstimate(fraction=fraction, std_error=se,
                        confidence_interval=(max(0.0, fraction - half),
                                             min(1.0, fraction + half)),
                        trials=cfg.trials)


def grinding_max_oracle(mean: float, draws: int, cfg: SimConfig) -> MomentEstimate:
    """Monte Carlo E[max of `draws` i.i.d. exponential(mean) rewards];
    independent check of the harmonic-number closed form."""
    if mean < 0.0:
        raise ValueError(f"mean must be >= 0 (got {mean})")
    if draws < 1:
        raise ValueError(f"draws must be >= 1 (got {draws})")
    _check_config(cfg)
    maxima = np.empty(cfg.trials)
    row = 0
    for block, size in _blocks(cfg.trials):
        rng = _substream(cfg.seed, block)
        maxima[row:row + size] = rng.exponential(mean, (size, draws)).max(axis=1)
        row += size
    se = float(np.std(maxima, ddof=1) / math.sqrt(cfg.trials)) \
        if cfg.trials > 1 else 0.0
    return MomentEstimate(value=float(np.mean(maxima)), std_error=se,
                          trials=cfg.trials)


def equilibrium_empirical_check(n: int, p: float,
                                cfg: SimConfig) -> ConditionalInverseEstimate:
    """Sample K ~ Binomial(n, p), discard K = 0, and average 1/K; Monte
    Carlo oracle for the exact conditional expectation."""
    if n < 1:
        raise ValueError(f"n must be >= 1 (got {n})")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1] (got {p})")
    _check_config(cfg)
    kept = []
    for block, size in _blocks(cfg.trials):
        rng = _substream(cfg.seed, block)
        k = rng.binomial(n, p, size)
        kept.append(1.0 / k[k > 0])
    inverses = np.concatenate(kept)
    if inverses.size == 0:
        return ConditionalInverseEstimate(value=None, std_error=None,
                                          effective_trials=0,
                                          requested_trials=cfg.trials)
    se = float(np.std(inverses, ddof=1) / math.sqrt(inverses.size)) \
        if inverses.size > 1 else 0.0
    return ConditionalInverseEstimate(value=float(np.mean(inverses)),
                                      std_error=se,
                                      effective_trials=int(inverses.size),
                                      requested_trials=cfg.trials)


def write_trials_csv(path, profits, successes, stop_times) -> None:
    """Stream per-trial results as CSV with columns
    trial, profit(USD), success, stop_time(s)."""
    write_csv(path, ("trial", "profit(USD)", "success", "stop_time(s)"),
              (np.arange(len(profits)), profits, successes, stop_times))
