"""Several rational attackers, one winner-takes-all prize.

Each of n players attacks with some probability p; with K attackers the
winner earns E[V]/K while everyone pays the compute bill. Indifference
pins the symmetric equilibrium: E[1/K | K>=1] * E[V] = cost. Competition
thins profits but does not stop attacks until the delay pushes even a
lone attacker underwater.
"""

from esdp import (
    conditional_inverse_expectation,
    equilibrium_attack_probability,
    linear_threshold,
)

REWARD = 10.0  # USD
SPEEDUP, COST_RATE = 3.0, 0.05

print("Prize dilution E[1/K | K>=1] at attack probability 0.5:")
for n in (1, 2, 5, 10, 50):
    print(f"  n={n:3d}: {conditional_inverse_expectation(n, 0.5):.4f}")

print("\nEquilibrium attack probability vs delay (n = 5 players):")
print(f"{'delay (s)':>10} {'regime':>10} {'p*':>8} {'E[attackers]':>13}")
for delay in (60.0, 150.0, 300.0, 450.0, 599.0, 600.0, 700.0):
    result = equilibrium_attack_probability(5, REWARD, COST_RATE, delay,
                                            SPEEDUP)
    print(f"{delay:>10.0f} {result.regime:>10} "
          f"{result.attack_probability:>8.4f} "
          f"{result.expected_attackers:>13.3f}")

dominance = linear_threshold(SPEEDUP, COST_RATE, REWARD)
print(f"\nStrict-dominance delay: {dominance:.0f} s. At or above it, "
      "honest behavior\nbeats attacking even for a lone attacker, so "
      "p* = 0 for every n;\nbelow it, equilibrium attack activity is "
      "positive no matter how many\nrivals split the prize.")
