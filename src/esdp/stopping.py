"""Backward-induction solver for the adversary's compute/idle problem.

State is (remaining work s, current reward v, time t): s is measured in
seconds of honest sequential work, shrinks at `speedup` per second while
computing, and the attack succeeds when s hits 0 strictly before the
honest reveal at t_horizon = seed_time + honest_delay. The value function
satisfies

    J(s, v, t) = max(J_idle, J_compute),
    J_idle    = E[J(s, V', t+dt)],
    J_compute = -cost_rate*dt + E[J(s - speedup*dt, V', t+dt)],

with J(0, v, t) = v for t < t_horizon (reward collected on completion)
and J(., ., t) = 0 at and after the reveal. A tie at the reveal instant
counts as failure.

Discretization: the time axis is uniform with step dt; the work axis is
induced by the dynamics (s in {T - j*speedup*dt}) so computing maps grid
points to grid points exactly and all interpolation error lives in the
reward dimension. The reward axis spans [0, reward_max] with clamped
(absorbing) transitions beyond the top; that truncation can only lower J,
i.e. it is conservative for the attacker and anti-conservative for the
defender, so reward_max defaults generously (10x stationary mean + 5
stationary standard deviations, or 10x the initial reward + 5 when the
path starts above that). Mean-reverting reward transitions use
the exact one-step Gaussian law reflected at 0, integrated by
Gauss-Hermite quadrature and linearly interpolated back onto the grid.

Computing is chosen on weak preference (J_compute >= J_idle), which makes
the stored policy the acceptance region of the threshold-policy result;
completed states (s = 0) before the reveal are kept inside the region so
the decision boundary there is 0. States where the two branches tie
exactly (whole plateaus of them exist whenever there is slack) would have
their sign decided by ~1e-15-relative float noise, so the comparison
carries a tie tolerance of 1e-9 of one step's cost plus 1e-12 of the
reward scale: ties land on compute, as the weak inequality dictates, and
the stored region stays monotone where the exact one is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: numpy loads where arrays are made
    import numpy as np

from ._csv import write_csv
from .core import (
    Constant,
    MarkovOU,
    Scenario,
    as_count,
    in_range,
    validate_scenario,
)

__all__ = [
    "GridSpec",
    "ValueGrid",
    "PolicyGrid",
    "InitialSecurityVerdict",
    "StructureReport",
    "solve",
    "initial_value",
    "initial_security_verdict",
    "check_threshold_structure",
    "extract_decision_boundary",
    "write_grid_csv",
    "write_boundary_csv",
]

_REL_TOL = 1e-9
# numpy's hermgauss loses its weights past about 370 nodes (they sum to 0
# at 371 on numpy 2.4); 100 nodes integrate polynomials to degree 199
_MAX_NODES = 100


@dataclass(frozen=True)
class GridSpec:
    """Discretization: time step (must divide the honest delay), number of
    reward grid points, reward-axis truncation (None picks the default
    from the reward model), and Gauss-Hermite node count for the reward
    transition expectation."""

    time_step: float
    reward_points: int = 101
    reward_max: float | None = None
    quadrature_nodes: int = 7


@dataclass
class ValueGrid:
    """Solved J over (work index, reward index, time index); axis j of the
    work dimension corresponds to s_values[j] = max(T - j*speedup*dt, 0),
    so index 0 is the untouched evaluation and the last index is
    completion."""

    values: np.ndarray
    s_values: np.ndarray
    v_values: np.ndarray
    t_values: np.ndarray
    spec: GridSpec
    scenario: Scenario


@dataclass
class PolicyGrid:
    """Boolean acceptance region on the same axes: True where computing is
    weakly better than idling."""

    compute: np.ndarray
    s_values: np.ndarray
    v_values: np.ndarray
    t_values: np.ndarray
    spec: GridSpec
    scenario: Scenario


@dataclass(frozen=True)
class InitialSecurityVerdict:
    """Per-initial-reward verdict at the decision state (s = honest delay,
    t = seed time): secure where J stays within one time step of cost.
    flip_reward is the smallest grid reward judged insecure (None when the
    whole axis is secure)."""

    reward_values: np.ndarray
    initial_values: np.ndarray
    secure: np.ndarray
    flip_reward: float | None
    tolerance: float


@dataclass(frozen=True)
class StructureReport:
    """Reward-monotonicity audit of a policy: `violations` lists every
    (work, reward, time) index triple where computing is off although it
    is on at a smaller reward in the same (work, time) slice."""

    violation_count: int
    violations: np.ndarray
    cells_checked: int

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def _default_reward_max(model) -> float:
    if isinstance(model, Constant):
        return 10.0 * model.value
    std = model.stationary_std()
    top = 10.0 * model.long_run_mean + 5.0 * std
    # a path starting above that axis gets the same headroom over its start
    return top if model.initial <= top else 10.0 * model.initial + 5.0 * std


def _transition_matrix(model: MarkovOU, v_values: np.ndarray, dt: float,
                       nodes: int) -> np.ndarray:
    """Row-stochastic kernel W with W[i, :] the quadrature weights of the
    reflected one-step law started from v_values[i], interpolated onto the
    reward grid (mass beyond the top clamped to the last point)."""
    import numpy as np
    n_v = v_values.size
    x, w = np.polynomial.hermite.hermgauss(nodes)
    weights = w / math.sqrt(math.pi)
    m = model.transition_mean(v_values, dt)
    s = model.transition_std(dt)
    targets = np.abs(m[:, None] + math.sqrt(2.0) * s * x[None, :])
    np.clip(targets, 0.0, v_values[-1], out=targets)

    W = np.zeros((n_v, n_v))
    dv = v_values[1] - v_values[0] if n_v > 1 else 0.0
    if dv == 0.0:
        W[:, 0] = 1.0
        return W
    position = targets / dv
    low = np.minimum(position.astype(np.intp), n_v - 2)
    frac = position - low
    rows = np.broadcast_to(np.arange(n_v)[:, None], targets.shape)
    tiled = np.broadcast_to(weights, targets.shape)
    np.add.at(W, (rows, low), tiled * (1.0 - frac))
    np.add.at(W, (rows, low + 1), tiled * frac)
    return W


def solve(scenario: Scenario, grid: GridSpec) -> tuple[ValueGrid, PolicyGrid]:
    """Solve the compute/idle problem for the scenario's honest delay.

    Supports constant and mean-reverting Markov reward models (the
    distribution-only variants carry no transition law to induct over).
    Rejects time steps that do not divide the delay and grids so coarse
    that one compute step overshoots the whole evaluation.
    """
    import numpy as np
    scenario = validate_scenario(scenario)
    model = scenario.reward
    if not isinstance(model, (Constant, MarkovOU)):
        raise ValueError(
            f"reward model '{model.kind}' has no dynamics to induct over; "
            "supported kinds: constant, markov_ou")
    env = scenario.env
    T, dt = env.honest_delay, grid.time_step
    in_range(dt, "time_step", 0.0, ends="()")
    n_v = as_count(grid.reward_points, "reward_points", low=2)
    nodes = as_count(grid.quadrature_nodes, "quadrature_nodes",
                     cap=_MAX_NODES)
    n_steps = round(T / dt)
    if n_steps < 1 or abs(n_steps * dt - T) > _REL_TOL * max(T, 1.0):
        raise ValueError(
            f"time_step {dt} does not divide the honest delay {T}")
    if env.speedup * dt > T * (1.0 + _REL_TOL):
        raise ValueError(
            "grid too coarse: one compute step exceeds the whole evaluation "
            f"(speedup*dt = {env.speedup * dt} > honest_delay = {T})")

    work_steps = math.ceil(T / (env.speedup * dt) - 1e-12)
    s_values = np.maximum(T - env.speedup * dt * np.arange(work_steps + 1), 0.0)
    s_values[-1] = 0.0

    reward_max = grid.reward_max if grid.reward_max is not None \
        else _default_reward_max(model)
    in_range(reward_max, "reward_max", 0.0)
    initial = model.mean()
    if initial > reward_max:
        raise ValueError(
            f"initial reward {initial} lies above reward_max {reward_max}")
    v_values = np.linspace(0.0, reward_max, n_v)
    t_values = env.seed_time + dt * np.arange(n_steps + 1)

    if isinstance(model, MarkovOU):
        kernel_t = _transition_matrix(model, v_values, dt, nodes).T

    n_s, n_t = work_steps + 1, n_steps + 1
    J = np.zeros((n_t, n_s, n_v))
    policy = np.zeros((n_t, n_s, n_v), dtype=bool)
    J[:n_steps, work_steps, :] = v_values          # completed before reveal
    policy[:n_steps, work_steps, :] = True
    step_cost = env.cost_rate * dt
    tie_tolerance = 1e-9 * step_cost + 1e-12 * reward_max

    for k in range(n_steps - 1, -1, -1):
        nxt = J[k + 1]
        expected = nxt if isinstance(model, Constant) else nxt @ kernel_t
        idle = expected[:work_steps]
        comp = expected[1:] - step_cost
        np.maximum(idle, comp, out=J[k, :work_steps])
        np.greater_equal(comp, idle - tie_tolerance,
                         out=policy[k, :work_steps])

    values = np.moveaxis(J, 0, 2)
    compute = np.moveaxis(policy, 0, 2)
    value_grid = ValueGrid(values, s_values, v_values, t_values,
                           grid, scenario)
    policy_grid = PolicyGrid(compute, s_values, v_values, t_values,
                             grid, scenario)
    return value_grid, policy_grid


def initial_value(vg: ValueGrid, reward: float) -> float:
    """J at the decision state (s = honest delay, t = seed time), linearly
    interpolated in the reward axis."""
    import numpy as np
    return float(np.interp(reward, vg.v_values, vg.values[0, :, 0]))


def initial_security_verdict(vg: ValueGrid) -> InitialSecurityVerdict:
    """Secure/insecure per initial reward level, with tolerance of one time
    step of compute cost (the discretization floor of the solved J)."""
    import numpy as np
    tolerance = vg.scenario.env.cost_rate * vg.spec.time_step
    initial_values = vg.values[0, :, 0].copy()
    secure = initial_values <= tolerance
    if secure.all():
        flip = None
    else:
        flip = float(vg.v_values[int(np.argmax(~secure))])
    return InitialSecurityVerdict(reward_values=vg.v_values.copy(),
                                  initial_values=initial_values,
                                  secure=secure,
                                  flip_reward=flip,
                                  tolerance=tolerance)


def _first_compute(compute: np.ndarray) -> tuple[np.ndarray, int]:
    """Per (work, time) slice of a policy: the index of the first computing
    reward (n_v when none), C-ordered, and the number of idle cells above
    it summed over all slices. Each such cell is one violation of the
    upper-set structure, so `gaps` is the audit's violation count.

    Reads the policy time-major, where each slice is contiguous, so the
    time-major layout `solve` returns is scanned without a copy."""
    import numpy as np
    n_v = compute.shape[1]
    by_time = np.moveaxis(compute, 2, 0)
    count = np.count_nonzero(by_time, axis=2)
    first = np.where(count > 0, by_time.argmax(axis=2), n_v)
    gaps = int((n_v - first - count).sum())
    return np.ascontiguousarray(first.T), gaps


def check_threshold_structure(pg: PolicyGrid) -> StructureReport:
    """Audit the policy for reward monotonicity: within every (work, time)
    slice the compute region must be an upper set in the reward. Returns
    the violating triples (content of the report, not an error). The
    violations are counted first and listed only when some exist."""
    import numpy as np
    _, gaps = _first_compute(pg.compute)
    if gaps:
        seen_below = np.logical_or.accumulate(pg.compute, axis=1)
        violations = np.argwhere(~pg.compute & seen_below)
    else:
        violations = np.empty((0, 3), np.intp)
    return StructureReport(violation_count=int(violations.shape[0]),
                           violations=violations,
                           cells_checked=int(pg.compute.size))


def extract_decision_boundary(pg: PolicyGrid) -> np.ndarray:
    """Minimal reward at which computing becomes optimal, per (work, time)
    cell; +inf marks cells where computing is never optimal (infeasible
    states and everything at or after the reveal). Requires a monotone
    policy so the boundary is well defined."""
    import numpy as np
    first, gaps = _first_compute(pg.compute)
    if gaps:
        raise ValueError(
            f"policy has {gaps} reward-monotonicity "
            "violations; boundary undefined (see check_threshold_structure)")
    return np.append(pg.v_values, np.inf)[first]


def write_grid_csv(vg: ValueGrid, pg: PolicyGrid, path) -> None:
    """Dump the solved grid as CSV rows (s, v, t, J, compute)."""
    write_csv(path, ("s(s)", "v(USD)", "t(s)", "J(USD)", "compute"),
              (vg.s_values[:, None, None], vg.v_values[:, None], vg.t_values,
               vg.values, pg.compute))


def write_boundary_csv(boundary: np.ndarray, s_values: np.ndarray,
                       t_values: np.ndarray, path) -> None:
    """Dump a decision boundary as CSV rows (s, t, v_star); infeasible
    cells carry inf."""
    write_csv(path, ("s(s)", "t(s)", "v_star(USD)"),
              (s_values[:, None], t_values, boundary))
