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
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from ._csv import write_csv
from .core import MarkovOU, Scenario, as_count, validate_scenario
from .equilibrium import _players

if TYPE_CHECKING:  # annotations only: numpy loads where arrays are made
    import numpy as np

__all__ = [
    "SimConfig",
    "ProfitEstimate",
    "TailEstimate",
    "MomentEstimate",
    "ConditionalInverseEstimate",
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
    """Simulation knobs: trial count, master seed, and the confidence
    level used for interval reporting."""

    trials: int = 10_000
    seed: int = 0
    confidence: float = 0.99

    def violations(self) -> list[str]:
        out = []
        try:
            as_count(self.trials, "trials")
        except ValueError as exc:
            out.append(str(exc))
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
    import numpy as np
    # distinct 128-bit Philox keys per (seed, block): independent streams
    return np.random.Generator(
        np.random.Philox(key=int(seed) + (block << 64)))


def _per_block(cfg: SimConfig, draw) -> np.ndarray:
    """draw(rng, size) -> `size` rows, for each block of cfg.trials, filled
    into one array of cfg.trials rows.

    Block b holds trials [b*_BLOCK, (b+1)*_BLOCK) and draws from
    _substream(cfg.seed, b) alone, so a longer run repeats every full block
    of a shorter one, and its partial last block too when draw takes each
    trial's variates together (not so for the rollout, which draws a
    block one time step at a time)."""
    import numpy as np
    for block in range(math.ceil(cfg.trials / _BLOCK)):
        start = block * _BLOCK
        rows = draw(_substream(cfg.seed, block),
                    min(_BLOCK, cfg.trials - start))
        if block == 0:
            out = np.empty((cfg.trials, *rows.shape[1:]), rows.dtype)
        out[start:start + len(rows)] = rows
    return out


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value). Both are
    taken on x scaled by a power of two to |x| <= 1, which moves no bit of
    either for a sample of normal floats but keeps the sum and the squares
    finite when |x| nears the largest float."""
    import numpy as np
    exponent = math.frexp(float(np.max(np.abs(x))))[1]
    x = np.ldexp(x, -exponent)
    se = float(np.std(x, ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return math.ldexp(float(np.mean(x)), exponent), math.ldexp(se, exponent)


def _z_value(confidence: float) -> float:
    from statistics import NormalDist  # a few ms to import: only when used
    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


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
    import numpy as np
    profits = np.asarray(profits, dtype=float)
    mean, se = _mean_se(profits)
    half = _z_value(confidence) * se
    return ProfitEstimate(
        mean=mean,
        std_error=se,
        confidence_interval=(mean - half, mean + half),
        positive_profit_fraction=float(np.mean(profits > 0.0)))


def _commit_draw(scenario: Scenario, cfg: SimConfig, delay: float):
    """The commit attacker's reward, one draw per trial at the horizon
    `delay`, and its cost of computing for delay/speedup seconds. Checks
    the scenario, then cfg, then the delay."""
    scenario = validate_scenario(scenario)
    _check_config(cfg)
    if not 0.0 < delay < math.inf:
        raise ValueError(f"delay must be finite and > 0 (got {delay})")
    env = scenario.env
    rewards = _per_block(cfg, partial(scenario.reward.sample, horizon=delay))
    return rewards, env.cost_rate * delay / env.speedup


def commit_profit_samples(scenario: Scenario, cfg: SimConfig,
                          delay: float | None = None):
    """Per-trial outcome of the commit-to-full-evaluation strategy.

    Returns (profits, successes, stop_times). The adversary runs for
    delay/speedup seconds at the configured cost rate and collects one
    terminal reward draw on success; with speedup exactly 1 it finishes at
    the honest reveal, which the strict success rule counts as failure.
    """
    import numpy as np
    env = scenario.env
    T = env.honest_delay if delay is None else delay
    rewards, cost = _commit_draw(scenario, cfg, T)
    succeeds = env.speedup > 1.0  # completion at T/speedup < T
    profits = (rewards if succeeds else np.zeros_like(rewards)) - cost
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

    Each step reads one time slice of the policy. The time-major layout
    that `solve` returns (time the slowest axis in memory) is read in
    place; any other layout is copied once into it.
    """
    import numpy as np
    _check_config(cfg)
    scenario = validate_scenario(scenario)
    if scenario != policy_grid.scenario:
        raise ValueError("policy grid was solved for a different scenario")
    env = scenario.env
    model = scenario.reward
    compute = policy_grid.compute
    v_values = policy_grid.v_values
    n_s, n_v, n_t = compute.shape
    by_time = np.ascontiguousarray(np.moveaxis(compute, 2, 0)).reshape(n_t, -1)
    final_work = n_s - 1          # index of the completed (s = 0) state
    horizon_idx = n_t - 1         # honest reveal time index
    dt = policy_grid.spec.time_step
    # paid[n]: the cost after n compute steps, summed in sequence
    paid = np.full(n_t, env.cost_rate * dt)
    paid[0] = 0.0
    np.add.accumulate(paid, out=paid)
    dv = v_values[1] - v_values[0] if n_v > 1 else 0.0

    is_ou = isinstance(model, MarkovOU)
    v0 = model.mean()

    def reward_cells(v):
        if dv > 0.0:
            return np.clip(np.rint(v / dv), 0, n_v - 1).astype(np.intp)
        return np.zeros(v.size, dtype=np.intp)

    def profits(rng, size):
        v = np.full(size, v0)
        cell = reward_cells(v)
        work = np.zeros(size, dtype=np.intp)
        reward = np.zeros(size)
        running = np.ones(size, dtype=bool)
        for k in range(horizon_idx):
            if not running.any():
                break
            act = by_time[k].take(work * n_v + cell)
            act &= running
            if is_ou:
                v = model.step(v, dt, rng)
                cell = reward_cells(v)
            work += act
            finished = act & (work == final_work)
            if k + 1 < horizon_idx:
                np.copyto(reward, v, where=finished)
            running &= ~finished
        return reward - paid[work]

    return profit_estimate(_per_block(cfg, profits), cfg.confidence)


def estimate_tail_probability(scenario: Scenario, delay: float,
                              cfg: SimConfig) -> TailEstimate:
    """Estimate P[V - cost_rate*delay/speedup > 0] by sampling terminal
    rewards; the empirical check of the moment-bound (Chebyshev) design
    rule. Requires a reward model with finite mean and variance."""
    import numpy as np
    draws, cost = _commit_draw(scenario, cfg, delay)
    fraction = int(np.count_nonzero(draws - cost > 0.0)) / cfg.trials
    se = math.sqrt(fraction * (1.0 - fraction) / cfg.trials)
    half = _z_value(cfg.confidence) * se
    return TailEstimate(fraction=fraction, std_error=se,
                        confidence_interval=(max(0.0, fraction - half),
                                             min(1.0, fraction + half)),
                        trials=cfg.trials)


def grinding_max_oracle(mean: float, draws: int, cfg: SimConfig) -> MomentEstimate:
    """Monte Carlo E[max of `draws` i.i.d. exponential(mean) rewards];
    independent check of the harmonic-number closed form."""
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and >= 0 (got {mean})")
    as_count(draws, "draws")
    _check_config(cfg)
    value, se = _mean_se(_per_block(
        cfg, lambda rng, size: rng.exponential(mean, (size, draws)).max(axis=1)))
    return MomentEstimate(value=value, std_error=se, trials=cfg.trials)


def equilibrium_empirical_check(n: int, p: float,
                                cfg: SimConfig) -> ConditionalInverseEstimate:
    """Sample K ~ Binomial(n, p), discard K = 0, and average 1/K; Monte
    Carlo oracle for the exact conditional expectation."""
    n = _players(n)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1] (got {p})")
    _check_config(cfg)
    k = _per_block(cfg, lambda rng, size: rng.binomial(n, p, size))
    inverses = 1.0 / k[k > 0]
    if inverses.size == 0:
        return ConditionalInverseEstimate(value=None, std_error=None,
                                          effective_trials=0,
                                          requested_trials=cfg.trials)
    value, se = _mean_se(inverses)
    return ConditionalInverseEstimate(value=value, std_error=se,
                                      effective_trials=int(inverses.size),
                                      requested_trials=cfg.trials)


def write_trials_csv(path, profits, successes, stop_times) -> None:
    """Stream per-trial results as CSV with columns
    trial, profit(USD), success, stop_time(s)."""
    import numpy as np
    write_csv(path, ("trial", "profit(USD)", "success", "stop_time(s)"),
              (np.arange(len(profits)), profits, successes, stop_times))
