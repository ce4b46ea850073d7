"""The attacker's real problem is dynamic: compute now or wait for a spike?

With a mean-reverting reward the attacker can start the evaluation, idle
when the prize sags, and finish into a spike. Backward induction over
(remaining work, reward, time) yields the value function and an
acceptance region that is monotone in the reward: above a boundary
v*(s, t) you compute, below it you wait.
"""

import os

import numpy as np

from esdp import (
    DEFAULT_OU_REWARD,
    EconomicEnvironment,
    GridSpec,
    Scenario,
    check_threshold_structure,
    extract_decision_boundary,
    initial_security_verdict,
    initial_value,
    solve,
)
from esdp.stopping import write_boundary_csv

env = EconomicEnvironment(speedup=3.0, cost_rate=0.05, honest_delay=600.0)
scenario = Scenario(env, DEFAULT_OU_REWARD)  # mean-reverting around 10 USD
grid = GridSpec(time_step=1.0, reward_points=161, reward_max=32.0)

values, policy = solve(scenario, grid)
j0 = initial_value(values, DEFAULT_OU_REWARD.initial)
print(f"Attack value at the seed reveal (delay 600 s, reward starts at "
      f"{DEFAULT_OU_REWARD.initial:.0f} USD): {j0:.2f} USD")
print("Even though 600 s is the static break-even for a flat 10 USD "
      "reward,\ntiming the completion against reward spikes is worth "
      f"{j0:.2f} USD here.")

verdict = initial_security_verdict(values)
print(f"\nSmallest initial reward judged insecure: "
      f"{verdict.flip_reward:.2f} USD "
      f"(tolerance {verdict.tolerance:.3f} USD)")

report = check_threshold_structure(policy)
print(f"Reward-monotonicity violations in the policy: "
      f"{report.violation_count} across {report.cells_checked} cells")

boundary = extract_decision_boundary(policy)
mid = values.t_values.size // 2
finite = np.isfinite(boundary[:, mid])
print(f"\nDecision boundary halfway through the round "
      f"(t = {values.t_values[mid]:.0f} s):")
for j in range(0, values.s_values.size, 40):
    mark = f"{boundary[j, mid]:6.2f} USD" if finite[j] else "  never"
    print(f"  remaining work {values.s_values[j]:6.1f} s -> compute once "
          f"reward >= {mark}")

out_dir = "demo-out"
os.makedirs(out_dir, exist_ok=True)
write_boundary_csv(boundary, values.s_values, values.t_values,
                   os.path.join(out_dir, "boundary.csv"))
print(f"\nDecision boundary written to {out_dir}/boundary.csv; "
      "`esdp solve SCENARIO --out DIR` writes the full value grid too.")
