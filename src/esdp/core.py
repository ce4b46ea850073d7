"""Domain types shared by every other module.

Units are fixed throughout the package: times in seconds, money in USD,
cost rates in USD per second of adversarial running time. An attack round
is described by an :class:`EconomicEnvironment` (hardware speedup, cost
rate, honest evaluation delay), a :class:`RewardModel` for the value the
adversary can extract, and a :class:`Scenario` bundling both with the
attack-surface modifiers (grinding size, abort leverage, coalition size,
player count, round count).

Construction never validates; :func:`validate_scenario` aggregates every
violated invariant so callers see the full list at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "harmonic_number",
    "EconomicEnvironment",
    "RewardModel",
    "Constant",
    "Exponential",
    "Lognormal",
    "Empirical",
    "Bounded",
    "MarkovOU",
    "DEFAULT_OU_REWARD",
    "Scenario",
    "ThresholdReport",
    "ScenarioValidationError",
    "scenario_violations",
    "validate_scenario",
]


def harmonic_number(n: int) -> float:
    """H_n = sum(1/i, i=1..n); exact summation up to 10^6, the standard
    log n + gamma + 1/(2n) asymptotic above (error < 1e-13 there)."""
    if n <= 10 ** 6:
        return math.fsum(1.0 / i for i in range(1, n + 1))
    return math.log(n) + np.euler_gamma + 1.0 / (2.0 * n)


_erfc = np.vectorize(math.erfc, otypes=[float])
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PANEL_WIDTH = 0.25


def _log_cdf(*args: np.ndarray) -> np.ndarray:
    """log(1 - sum of Q(a) over args), Q(a) = 1 - Phi(a) = erfc(a/sqrt 2)/2:
    exact in the upper tail by log1p, and -inf where the sum rounds to 1."""
    tail = sum(0.5 * _erfc(a / math.sqrt(2.0)) for a in args)
    return np.log1p(-tail, out=np.full_like(tail, -np.inf), where=tail < 1.0)


def _checked_quadrature(f, lo: float, hi: float) -> float:
    """Integral of the vectorized `f` over [lo, hi] by composite 8-point
    Gauss-Legendre at panel widths _PANEL_WIDTH and _PANEL_WIDTH/2; raises
    ValueError when the two differ by more than 1e-9 relative."""
    sums = []
    for width in (_PANEL_WIDTH, 0.5 * _PANEL_WIDTH):
        half = 0.5 * (hi - lo) / max(1, math.ceil((hi - lo) / width))
        x = np.arange(lo + half, hi, 2.0 * half)[:, None] + half * _GL_NODES
        sums.append(half * float(np.sum(_GL_WEIGHTS * f(x))))
    coarse, fine = sums
    if not abs(coarse - fine) <= 1e-9 * abs(fine):
        raise ValueError(f"quadrature did not converge: {fine!r} at panel "
                         f"width {0.5 * _PANEL_WIDTH}, {coarse!r} at {_PANEL_WIDTH}")
    return fine


@dataclass(frozen=True)
class EconomicEnvironment:
    """Adversary economics for one beacon round.

    speedup:       factor by which adversarial hardware outpaces the honest
                   evaluator (>= 1); the adversary finishes T of honest work
                   in T/speedup seconds.
    cost_rate:     USD per second of adversarial running time (> 0).
    honest_delay:  seconds the honest evaluator needs (> 0); the delay
                   parameter under analysis.
    seed_time:     second at which the round seed becomes known (default 0).
    """

    speedup: float
    cost_rate: float
    honest_delay: float
    seed_time: float = 0.0

    def violations(self) -> list[str]:
        out = []
        if not 1.0 <= self.speedup < math.inf:
            out.append(f"speedup must be finite and >= 1 (got {self.speedup})")
        if not 0.0 < self.cost_rate < math.inf:
            out.append(
                f"cost_rate must be finite and > 0 (got {self.cost_rate})")
        if not 0.0 < self.honest_delay < math.inf:
            out.append("honest_delay must be finite and > 0 "
                       f"(got {self.honest_delay})")
        if not math.isfinite(self.seed_time):
            out.append(f"seed_time must be finite (got {self.seed_time})")
        return out


class RewardModel:
    """Distribution of the per-round reward V (USD, nonnegative).

    Concrete models provide single-draw moments and sampling plus the
    order-statistic expectation E[max of G i.i.d. draws] used by grinding
    analysis. Path-valued models (:class:`MarkovOU`) additionally expose
    their exact one-step transition; for them the single-draw law is the
    value at the end of a given horizon.
    """

    kind: str = "abstract"

    def mean(self, horizon: float | None = None) -> float:
        raise NotImplementedError

    def variance(self, horizon: float | None = None) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int,
               horizon: float | None = None) -> np.ndarray:
        """Draw `size` independent single-round reward values."""
        raise NotImplementedError

    def expected_max(self, draws: int, horizon: float | None = None) -> float:
        """E[max of `draws` i.i.d. rewards]."""
        raise NotImplementedError

    def violations(self) -> list[str]:
        return []


@dataclass(frozen=True)
class Constant(RewardModel):
    """Deterministic reward of `value` USD every round."""

    value: float
    kind = "constant"

    def mean(self, horizon=None):
        return self.value

    def variance(self, horizon=None):
        return 0.0

    def sample(self, rng, size, horizon=None):
        return np.full(size, self.value, dtype=float)

    def expected_max(self, draws, horizon=None):
        return self.value

    def violations(self):
        return [] if 0.0 <= self.value < math.inf else [
            f"reward value must be finite and >= 0 (got {self.value})"]


@dataclass(frozen=True)
class Exponential(RewardModel):
    """Exponentially distributed reward; max of G draws has mean mean*H_G."""

    mean_value: float
    kind = "exponential"

    def mean(self, horizon=None):
        return self.mean_value

    def variance(self, horizon=None):
        return self.mean_value ** 2

    def sample(self, rng, size, horizon=None):
        return rng.exponential(self.mean_value, size)

    def expected_max(self, draws, horizon=None):
        return self.mean_value * harmonic_number(draws)

    def violations(self):
        return [] if 0.0 <= self.mean_value < math.inf else [
            f"reward mean must be finite and >= 0 (got {self.mean_value})"]


@dataclass(frozen=True)
class Lognormal(RewardModel):
    """Lognormal reward parameterized by its own mean and variance (USD, USD^2)."""

    mean_value: float
    variance_value: float
    kind = "lognormal"

    def _underlying(self) -> tuple[float, float]:
        # mean/variance of the underlying normal from the lognormal moments
        sigma2 = math.log1p(self.variance_value / self.mean_value ** 2)
        mu = math.log(self.mean_value) - 0.5 * sigma2
        return mu, math.sqrt(sigma2)

    def mean(self, horizon=None):
        return self.mean_value

    def variance(self, horizon=None):
        return self.variance_value

    def sample(self, rng, size, horizon=None):
        mu, sigma = self._underlying()
        return rng.lognormal(mu, sigma, size)

    def expected_max(self, draws, horizon=None):
        if draws == 1:
            return self.mean_value
        # integral of G x(z) phi(z) Phi(z)^(G-1) over z, x = exp(mu + sigma z);
        # x(z) phi(z) = mean * phi(z - sigma) keeps the exponent finite
        sigma = self._underlying()[1]
        scale = draws * self.mean_value / math.sqrt(2.0 * math.pi)

        def integrand(z):
            return scale * np.exp((draws - 1) * _log_cdf(z) - (z - sigma) ** 2 / 2)

        top = sigma + math.sqrt(2.0 * math.log(draws)) + 10.0
        return _checked_quadrature(integrand, -12.0, top)

    def violations(self):
        out = []
        if not 0.0 < self.mean_value < math.inf:
            out.append("lognormal mean must be finite and > 0 "
                       f"(got {self.mean_value})")
        if not 0.0 < self.variance_value < math.inf:
            out.append("lognormal variance must be finite and > 0 "
                       f"(got {self.variance_value})")
        return out


@dataclass(frozen=True)
class Empirical(RewardModel):
    """Reward drawn uniformly (with replacement) from observed samples."""

    samples: tuple[float, ...]
    kind = "empirical"

    def mean(self, horizon=None):
        return float(np.mean(self.samples))

    def variance(self, horizon=None):
        return float(np.var(self.samples))

    def sample(self, rng, size, horizon=None):
        return rng.choice(np.asarray(self.samples, dtype=float), size=size)

    def expected_max(self, draws, horizon=None):
        # exact order statistic of sampling with replacement
        ordered = np.sort(np.asarray(self.samples, dtype=float))
        n = ordered.size
        ranks = np.arange(1, n + 1) / n
        weights = ranks ** draws - ((np.arange(n)) / n) ** draws
        return float(ordered @ weights)

    def violations(self):
        out = []
        if len(self.samples) < 1:
            out.append("empirical reward requires at least one sample")
        elif not all(0.0 <= x < math.inf for x in self.samples):
            out.append("empirical samples must all be finite and >= 0")
        return out


@dataclass(frozen=True)
class Bounded(RewardModel):
    """Reward known only through an upper bound; treated as the worst-case
    point mass at `max_value` (the distribution the robust bound defends
    against)."""

    max_value: float
    kind = "bounded"

    def mean(self, horizon=None):
        return self.max_value

    def variance(self, horizon=None):
        return 0.0

    def sample(self, rng, size, horizon=None):
        return np.full(size, self.max_value, dtype=float)

    def expected_max(self, draws, horizon=None):
        return self.max_value

    def violations(self):
        return [] if 0.0 <= self.max_value < math.inf else [
            f"reward max must be finite and >= 0 (got {self.max_value})"]


@dataclass(frozen=True)
class MarkovOU(RewardModel):
    """Mean-reverting reward process with exact Gaussian transitions.

    dV = reversion_rate * (long_run_mean - V) dt + volatility dW, reflected
    at 0 to keep rewards nonnegative. The one-step conditional law is

        V(t+dt) | V(t)=v  ~  | N(m, s^2) |,
        m = long_run_mean + (v - long_run_mean) * exp(-reversion_rate*dt),
        s^2 = volatility^2 * (1 - exp(-2*reversion_rate*dt)) / (2*reversion_rate).

    For closed-form thresholds the single-draw law is the (unreflected)
    conditional distribution at the supplied horizon; the reflection shift
    is negligible away from zero and ignored in the moments.
    """

    initial: float
    long_run_mean: float
    reversion_rate: float
    volatility: float
    kind = "markov_ou"

    def transition_mean(self, v, dt: float):
        decay = math.exp(-self.reversion_rate * dt)
        return self.long_run_mean + (v - self.long_run_mean) * decay

    def transition_std(self, dt: float) -> float:
        kappa = self.reversion_rate
        return self.volatility * math.sqrt(
            (1.0 - math.exp(-2.0 * kappa * dt)) / (2.0 * kappa))

    def stationary_std(self) -> float:
        return self.volatility / math.sqrt(2.0 * self.reversion_rate)

    def mean(self, horizon=None):
        if horizon is None:
            return self.initial
        return self.transition_mean(self.initial, horizon)

    def variance(self, horizon=None):
        if horizon is None:
            return 0.0
        return self.transition_std(horizon) ** 2

    def sample(self, rng, size, horizon=None):
        if horizon is None:
            return np.full(size, self.initial, dtype=float)
        m = self.transition_mean(self.initial, horizon)
        s = self.transition_std(horizon)
        return np.abs(rng.normal(m, s, size))

    def expected_max(self, draws, horizon=None):
        if draws == 1:
            return self.mean(horizon)
        if horizon is None:
            raise ValueError("markov_ou reward needs an explicit horizon")
        m = self.transition_mean(self.initial, horizon)
        s = self.transition_std(horizon)
        if s == 0.0:
            return abs(m)
        # integral of 1 - F^G over x >= 0 for the reflected law, in
        # u = (x - m)/s where P(|X| > x) = Q(u) + Q(u + 2m/s); below u = -14,
        # F^G < 1e-44 and the stretch adds its length exactly
        lo = max(-m / s, -14.0)

        def integrand(u):
            return -np.expm1(draws * _log_cdf(u, u + 2.0 * m / s))

        top = math.sqrt(2.0 * math.log(draws)) + 10.0
        return m + s * (lo + _checked_quadrature(integrand, lo, top))

    def violations(self):
        out = []
        if not 0.0 <= self.initial < math.inf:
            out.append(
                f"initial reward must be finite and >= 0 (got {self.initial})")
        if not 0.0 <= self.long_run_mean < math.inf:
            out.append("long_run_mean must be finite and >= 0 "
                       f"(got {self.long_run_mean})")
        if not 0.0 < self.reversion_rate < math.inf:
            out.append("reversion_rate must be finite and > 0 "
                       f"(got {self.reversion_rate})")
        if not 0.0 <= self.volatility < math.inf:
            out.append(
                f"volatility must be finite and >= 0 (got {self.volatility})")
        return out


#: Reward process used when a scenario only says "mean-reverting around 10 USD".
DEFAULT_OU_REWARD = MarkovOU(initial=10.0, long_run_mean=10.0,
                             reversion_rate=0.1, volatility=2.0)


def _positive_count(value, name: str) -> list[str]:
    if not (float(value) >= 1.0 and float(value).is_integer()):
        return [f"{name} must be a positive integer (got {value})"]
    return []


@dataclass(frozen=True)
class Scenario:
    """One attack setting: environment, reward model, and surface modifiers.

    The defaults (grinding_size=1, abort_probability=0, coalition_size=1,
    players=1, rounds=1) make every extended security condition collapse to
    the plain linear one, so "no attack surface" needs no configuration.
    grinding_cost_exponent sets how provisioning cost scales with grinding
    size G: 1 for fully parallel streams (cost G*c), 0.5 for partially
    shared hardware (cost c*sqrt(G)).
    """

    env: EconomicEnvironment
    reward: RewardModel
    grinding_size: int = 1
    abort_probability: float = 0.0
    protocol_means: tuple[float, ...] = ()
    coalition_size: int = 1
    players: int = 1
    rounds: int = 1
    grinding_cost_exponent: float = 1.0


class ScenarioValidationError(ValueError):
    """Raised by validate_scenario; carries every violated invariant."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid scenario: " + "; ".join(self.violations))


def scenario_violations(s: Scenario) -> list[str]:
    """All invariant violations in `s`, empty when the scenario is valid."""
    out = s.env.violations()
    out += s.reward.violations()
    out += _positive_count(s.grinding_size, "grinding_size")
    if not 0.0 <= s.abort_probability < 1.0:
        out.append("abort_probability must be in [0, 1) "
                   f"(got {s.abort_probability}); 1/(1-p) must stay finite")
    if not all(0.0 <= m < math.inf for m in s.protocol_means):
        out.append("protocol_means must all be finite and >= 0")
    out += _positive_count(s.coalition_size, "coalition_size")
    out += _positive_count(s.players, "players")
    out += _positive_count(s.rounds, "rounds")
    if not 0.0 <= s.grinding_cost_exponent <= 1.0:
        out.append("grinding_cost_exponent must be in [0, 1] "
                   f"(got {s.grinding_cost_exponent})")
    return out


def validate_scenario(s: Scenario) -> Scenario:
    """Return `s` unchanged when every invariant holds, else raise
    :class:`ScenarioValidationError` listing all violations."""
    violations = scenario_violations(s)
    if violations:
        raise ScenarioValidationError(violations)
    return s


@dataclass(frozen=True)
class ThresholdReport:
    """Required delay per security condition plus the binding maximum.

    `esdp` is the Economically Secure Delay Parameter: the smallest delay
    at which every evaluated condition certifies economic security, i.e.
    the maximum of `required_delays`. When a candidate delay was supplied,
    `secure` holds the verdict (secure at exact equality).
    """

    required_delays: dict[str, float]
    binding_condition: str
    esdp: float
    evaluated_delay: float | None = None
    secure: bool | None = None
