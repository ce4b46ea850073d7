"""Cross-checking every closed form by seeded simulation.

All simulations derive per-block Philox streams from one master seed, so
runs are reproducible bit for bit. Here: commit-strategy profits against
the break-even line, the Chebyshev tail guarantee, and a policy rollout
against the dynamic-programming value.
"""

from esdp import (
    Constant,
    DEFAULT_OU_REWARD,
    EconomicEnvironment,
    GridSpec,
    Lognormal,
    MomentBounds,
    ParameterIntervals,
    Scenario,
    SimConfig,
    commit_profit_samples,
    epsilon_robust_threshold,
    estimate_tail_probability,
    initial_value,
    profit_estimate,
    rollout_policy,
    solve,
)

cfg = SimConfig(trials=50_000, seed=7, confidence=0.99)

print("Commit-strategy profit vs delay (constant 10 USD reward):")
for delay in (300.0, 600.0, 1200.0):
    env = EconomicEnvironment(3.0, 0.05, delay)
    profits, _, _ = commit_profit_samples(Scenario(env, Constant(10.0)), cfg)
    est = profit_estimate(profits, cfg.confidence)
    print(f"  T={delay:6.0f} s: mean {est.value:+7.3f} USD, "
          f"99% CI [{est.confidence_interval[0]:+.3f}, "
          f"{est.confidence_interval[1]:+.3f}]")

epsilon = 0.01
delay = epsilon_robust_threshold(ParameterIntervals(3.0, 0.05, 0.0),
                                 MomentBounds(10.0, 5.0, epsilon))
env = EconomicEnvironment(3.0, 0.05, delay)
tail = estimate_tail_probability(Scenario(env, Lognormal(10.0, 25.0)),
                                 delay, SimConfig(trials=500_000, seed=8))
print(f"\nChebyshev check: at the epsilon-robust delay ({delay:.0f} s) the "
      f"simulated\npositive-profit fraction is {tail.value:.2e} "
      f"(CI upper {tail.confidence_interval[1]:.2e}) <= {epsilon}")

env = EconomicEnvironment(3.0, 0.05, 120.0)
scenario = Scenario(env, DEFAULT_OU_REWARD)
values, policy = solve(scenario, GridSpec(time_step=1.0, reward_points=321,
                                          reward_max=32.0,
                                          quadrature_nodes=15))
rollout = rollout_policy(policy, scenario, cfg)
j0 = initial_value(values, DEFAULT_OU_REWARD.initial)
print(f"\nPolicy rollout vs dynamic program (mean-reverting reward, "
      f"T=120 s):\n  rollout mean {rollout.value:.3f} USD in "
      f"[{rollout.confidence_interval[0]:.3f}, "
      f"{rollout.confidence_interval[1]:.3f}], solved J = {j0:.3f} USD")

again = rollout_policy(policy, scenario, cfg)
print(f"  rerun with the same seed reproduces the estimate exactly: "
      f"{again.value == rollout.value}")
