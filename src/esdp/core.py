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

import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: numpy loads where arrays are made
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


#: The most players the equilibrium solves for: three orders of magnitude
#: above Ethereum's ~10^6 validators, and a window of at most
#: 12 sqrt(n) + 97 binomial terms (about 3 MB).
MAX_PLAYERS = 10 ** 9
_LARGEST_FLOAT = math.nextafter(math.inf, 0.0)


def as_count(value, name: str, low: int = 1, cap=_LARGEST_FLOAT,
             whole_floats: bool = False, out: list | None = None) -> int:
    """`value` as an int, if it is an integer in [low, cap], else a
    ValueError naming `name` (appended to the list `out` if one is given).
    Every count obeys this one rule: an int or a numpy integer, an
    integer-valued float only where `whole_floats`, never a bool. The
    default cap is the largest float, so that a count always converts to a
    finite float; the bounds compare exactly, never raising OverflowError."""
    whole = value
    if whole_floats and isinstance(value, float) and value.is_integer():
        whole = int(value)
    if isinstance(whole, bool) or not isinstance(
            whole, (int, numbers.Integral)) or not low <= whole <= cap:
        return _fail(f"{name} must be an integer >= {low} and "
                     f"<= {cap:.6g} (got {value!r})", out)
    return int(whole)


def in_range(value, name: str, low: float, high: float = math.inf,
             ends: str = "[)", out: list | None = None,
             must: str = "must be"):
    """`value` unchanged, if it is a real number (never a bool) from `low`
    to `high`, else a ValueError such as "speedup must be finite and >= 1
    (got 0.5)" (appended to the list `out` if one is given). `ends` are the
    brackets, "[)", "()", "[]" or "(]". nan lies in no interval, and an
    open infinite end admits only finite values. The one real range rule."""
    if (low <= value < high if ends == "[)" else
            low < value < high if ends == "()" else
            low <= value <= high if ends == "[]" else
            low < value <= high) and value.__class__ is not bool:
        return value
    words = ["finite"] if high == math.inf and ends[1] == ")" else []
    if high < math.inf:
        words.append(f"in {ends[0]}{low:g}, {high:g}{ends[1]}")
    elif low > -math.inf:
        words.append(f"{'>=' if ends[0] == '[' else '>'} {low:g}")
    return _fail(f"{name} {must} {' and '.join(words)} (got {value})", out)


def all_in_range(values, name: str, low: float, high: float = math.inf,
                 ends: str = "[)", out: list | None = None):
    """`values` unchanged, if each passes :func:`in_range`, else the
    ValueError of the first that fails ("`name` must all be ...")."""
    for value in values:
        if in_range(value, name, low, high, ends, out, "must all be") is None:
            break  # one message for the sequence
    return values


def _fail(message: str, out: list | None) -> None:
    """Raise `message` as a ValueError, or append it to `out` if given."""
    if out is None:
        raise ValueError(message)
    out.append(message)


def check_violations(violations: list[str]) -> None:
    """Raise one ValueError listing every violation, if there are any."""
    if violations:
        raise ValueError("; ".join(violations))


def harmonic_number(n: int) -> float:
    """H_n = sum(1/i, i=1..n), with H_0 = 0; n must be a non-negative int.

    Exact summation up to n = 1024, so that grinding sizes up to 2^10 keep
    every bit. Above, the Euler-Maclaurin form
    log n + gamma + 1/(2n) - 1/(12n^2) + 1/(120n^4), whose next term is
    below 1e-20 there; it stays within 1 ulp of the exact sum on every n
    checked from 1025 to 2^20."""
    n = as_count(n, "n", low=0)
    if n <= 1024:
        return math.fsum(1.0 / i for i in range(1, n + 1))
    x = float(n)
    return math.log(x) + (0.5772156649015329 + (  # Euler's gamma
        0.5 / x - 1.0 / (12.0 * x * x) + 1.0 / (120.0 * x ** 4)))


def scaled_mean(x: np.ndarray) -> float:
    """Mean of the float array `x`, summed on x scaled by a power of two to
    |x| <= 1: the scaling moves no bit of the mean of normal floats, but
    keeps the sum finite when |x| nears the largest float."""
    import numpy as np
    exponent = math.frexp(float(np.max(np.abs(x))))[1]
    return math.ldexp(float(np.mean(np.ldexp(x, -exponent))), exponent)


@functools.cache
def _gauss_legendre():
    """The 8-point Gauss-Legendre nodes and weights on [-1, 1], then, in
    units of a panel's half-width from its centre, its halves' nodes and
    the first level's nodes: the panel's own followed by its halves'."""
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.concatenate((nodes - 1.0, nodes + 1.0))
    return nodes, weights, half, np.concatenate((nodes, half))


# Panels start no wider than _PANEL_WIDTH: narrower ones cost evaluations
# that most panels do not need, wider ones more levels, each one more call
# of the integrand. _MAX_SPLITS halvings reach a 1024th of it.
_PANEL_WIDTH = 1.0
_MAX_SPLITS = 10


def _log_cdf(*args: np.ndarray) -> np.ndarray:
    """log(1 - sum of Q(a) over args), Q(a) = 1 - Phi(a) = erfc(a/sqrt 2)/2:
    exact in the upper tail by log1p, and -inf where the sum rounds to 1.
    numpy has no erfc, so math.erfc is mapped over every argument's
    elements in one pass."""
    import numpy as np
    scaled = np.divide(args, math.sqrt(2.0))
    erfc = np.fromiter(map(math.erfc, scaled.ravel().tolist()), float,
                       scaled.size).reshape(scaled.shape)
    tail = np.add.reduce(0.5 * erfc)
    return np.log1p(-tail, out=np.full_like(tail, -np.inf), where=tail < 1.0)


def _checked_quadrature(f, lo: float, hi: float) -> float:
    """Integral of the vectorized `f` over [lo, hi] by 8-point
    Gauss-Legendre on panels that are split until each is resolved.

    The panels start no wider than _PANEL_WIDTH. Each panel's sum is
    compared with the sum over its two halves; the panel is closed, with
    the halves' sum, when the two differ by at most its width's share of
    1e-9 of the first level's total, and is otherwise replaced by its
    halves, whose sums are already known. All nodes of one level go to `f`
    in one call, and no node is evaluated twice. Raises ValueError when
    panels are still open after _MAX_SPLITS splits, or when the closed
    panels' differences sum past 1e-9 of the result."""
    import numpy as np
    _, weights, half_nodes, first_nodes = _gauss_legendre()
    count = max(1, math.ceil((hi - lo) / _PANEL_WIDTH))
    radius = 0.5 * (hi - lo) / count
    centers = lo + radius * np.arange(1.0, 2.0 * count, 2.0)
    # the first level evaluates each panel and its halves in one call
    sums = radius * (f(np.add.outer(centers, radius * first_nodes))
                     .reshape(count, 3, 8) @ weights)
    coarse, halves = sums[:, 0], 0.5 * sums[:, 1:]
    first = float(halves.sum())
    if not math.isfinite(first):  # no split can mend an inf or a nan
        raise ValueError(f"quadrature did not converge: {first!r}")
    tolerance = 1e-9 / (hi - lo) * abs(first)
    total = gaps = 0.0
    for splits in range(_MAX_SPLITS + 1):
        fine = halves[:, 0] + halves[:, 1]
        gap = np.abs(coarse - fine)
        done = gap <= tolerance * 2.0 * radius
        total += float(fine[done].sum())
        gaps += float(gap[done].sum())
        if done.all():
            break
        if splits == _MAX_SPLITS:
            raise ValueError(
                f"quadrature did not converge: {np.count_nonzero(~done)} "
                f"panels of width {2.0 * radius!r} still open after "
                f"{_MAX_SPLITS} splits")
        # the open panels' halves become the next level's panels
        split = ~done
        coarse = halves[split].ravel()
        radius *= 0.5
        centers = np.add.outer(centers[split], [-radius, radius]).ravel()
        halves = 0.5 * radius * (
            f(np.add.outer(centers, radius * half_nodes)).reshape(-1, 2, 8)
            @ weights)
    if not gaps <= 1e-9 * abs(total):
        raise ValueError(f"quadrature did not converge: panel differences "
                         f"{gaps!r} against a total of {total!r}")
    return total


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
        in_range(self.speedup, "speedup", 1.0, out=out)
        in_range(self.cost_rate, "cost_rate", 0.0, ends="()", out=out)
        in_range(self.honest_delay, "honest_delay", 0.0, ends="()", out=out)
        in_range(self.seed_time, "seed_time", -math.inf, ends="()", out=out)
        return out


class RewardModel:
    """Distribution of the per-round reward V (USD, nonnegative).

    Concrete models provide the single-draw mean and sampling plus the
    order-statistic expectation E[max of G i.i.d. draws] used by grinding
    analysis. Path-valued models (:class:`MarkovOU`) additionally expose
    their exact one-step transition; for them the single-draw law is the
    value at the end of a given horizon.
    """

    kind: str = "abstract"

    def mean(self, horizon: float | None = None) -> float:
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

    def sample(self, rng, size, horizon=None):
        import numpy as np
        return np.full(size, self.value, dtype=float)

    def expected_max(self, draws, horizon=None):
        return self.value

    def violations(self):
        out = []
        in_range(self.value, "reward value", 0.0, out=out)
        return out


@dataclass(frozen=True)
class Exponential(RewardModel):
    """Exponentially distributed reward; max of G draws has mean mean*H_G."""

    mean_value: float
    kind = "exponential"

    def mean(self, horizon=None):
        return self.mean_value

    def sample(self, rng, size, horizon=None):
        return rng.exponential(self.mean_value, size)

    def expected_max(self, draws, horizon=None):
        return self.mean_value * harmonic_number(draws)

    def violations(self):
        out = []
        in_range(self.mean_value, "reward mean", 0.0, out=out)
        return out


@dataclass(frozen=True)
class Lognormal(RewardModel):
    """Lognormal reward parameterized by its own mean and variance (USD, USD^2)."""

    mean_value: float
    variance_value: float
    kind = "lognormal"

    def _underlying(self) -> tuple[float, float]:
        # mean/variance of the underlying normal from the lognormal moments
        try:
            ratio = self.variance_value / self.mean_value ** 2
        except (OverflowError, ZeroDivisionError):
            # mean ** 2 left the float range, which the ratio need not
            ratio = self.variance_value / self.mean_value / self.mean_value
        sigma2 = math.log1p(ratio)
        mu = math.log(self.mean_value) - 0.5 * sigma2
        return mu, math.sqrt(sigma2)

    def mean(self, horizon=None):
        return self.mean_value

    def sample(self, rng, size, horizon=None):
        mu, sigma = self._underlying()
        return rng.lognormal(mu, sigma, size)

    def expected_max(self, draws, horizon=None):
        if draws == 1:
            return self.mean_value
        import numpy as np
        # mean times the integral of G x(z) phi(z) Phi(z)^(G-1) over z, with
        # x = exp(mu + sigma z) / mean: x(z) phi(z) = phi(z - sigma) keeps the
        # exponent finite, and the mean, taken out, keeps G * mean from
        # passing the float range
        sigma = self._underlying()[1]
        scale = draws / math.sqrt(2.0 * math.pi)

        def integrand(z):
            return scale * np.exp((draws - 1) * _log_cdf(z) - (z - sigma) ** 2 / 2)

        top = sigma + math.sqrt(2.0 * math.log(draws)) + 10.0
        return self.mean_value * _checked_quadrature(integrand, -12.0, top)

    def violations(self):
        out = []
        in_range(self.mean_value, "lognormal mean", 0.0, ends="()", out=out)
        in_range(self.variance_value, "lognormal variance", 0.0, ends="()",
                 out=out)
        if not out:  # each moment finite, their ratio perhaps not
            in_range(self._underlying()[1], "lognormal variance / mean^2",
                     -math.inf, ends="()", out=out)
        return out


@dataclass(frozen=True)
class Empirical(RewardModel):
    """Reward drawn uniformly (with replacement) from observed samples."""

    samples: tuple[float, ...]
    kind = "empirical"

    def mean(self, horizon=None):
        import numpy as np
        return scaled_mean(np.asarray(self.samples, dtype=float))

    def sample(self, rng, size, horizon=None):
        import numpy as np
        return rng.choice(np.asarray(self.samples, dtype=float), size=size)

    def expected_max(self, draws, horizon=None):
        import numpy as np
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
        all_in_range(self.samples, "empirical samples", 0.0, out=out)
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

    def sample(self, rng, size, horizon=None):
        import numpy as np
        return np.full(size, self.max_value, dtype=float)

    def expected_max(self, draws, horizon=None):
        return self.max_value

    def violations(self):
        out = []
        in_range(self.max_value, "reward max", 0.0, out=out)
        return out


@dataclass(frozen=True)
class MarkovOU(RewardModel):
    """Mean-reverting reward process with exact Gaussian transitions.

    dV = reversion_rate * (long_run_mean - V) dt + volatility dW, reflected
    at 0 to keep rewards nonnegative. The one-step conditional law is

        V(t+dt) | V(t)=v  ~  | N(m, s^2) |,
        m = long_run_mean + (v - long_run_mean) * exp(-reversion_rate*dt),
        s^2 = volatility^2 * (1 - exp(-2*reversion_rate*dt)) / (2*reversion_rate).

    Known defect: `mean` and `expected_max(1, ...)` return the mean of the
    unreflected normal N(m, s^2) at the horizon, while `sample` and `step`
    draw the reflected one, |N(m, s^2)|, whose mean is larger. Near zero the
    gap is large: MarkovOU(0, 0, 0.1, 2) has mean 0.0 at 60 s, while its
    draws average about 3.57. So the closed-form thresholds understate the
    reward there. The strict xfail
    `test_core.py::TestRewardModels::test_markov_ou_mean_matches_reflected_draws`
    pins the defect; ROADMAP item 2 plans the fix.
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
        # 1 - exp(-2 kappa dt) would round to 0 below 2 kappa dt ~ 1e-16
        kappa = self.reversion_rate
        return self.volatility * math.sqrt(
            -math.expm1(-2.0 * kappa * dt) / (2.0 * kappa))

    def step(self, v, dt: float, rng):
        """Advance every reward in `v` by one exact transition over `dt`,
        reflected at 0."""
        import numpy as np
        return np.abs(self.transition_mean(v, dt)
                      + self.transition_std(dt) * rng.standard_normal(v.shape))

    def stationary_std(self) -> float:
        return self.volatility / math.sqrt(2.0 * self.reversion_rate)

    def mean(self, horizon=None):
        if horizon is None:
            return self.initial
        return self.transition_mean(self.initial, horizon)

    def sample(self, rng, size, horizon=None):
        import numpy as np
        if horizon is None:
            return np.full(size, self.initial, dtype=float)
        return self.step(np.full(size, self.initial), horizon, rng)

    def expected_max(self, draws, horizon=None):
        if draws == 1:
            return self.mean(horizon)
        if horizon is None:
            raise ValueError("markov_ou reward needs an explicit horizon")
        m = self.transition_mean(self.initial, horizon)
        s = self.transition_std(horizon)
        if s == 0.0:
            return abs(m)
        import numpy as np
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
        in_range(self.initial, "initial reward", 0.0, out=out)
        in_range(self.long_run_mean, "long_run_mean", 0.0, out=out)
        in_range(self.reversion_rate, "reversion_rate", 0.0, ends="()",
                 out=out)
        in_range(self.volatility, "volatility", 0.0, out=out)
        return out


#: Reward process used when a scenario only says "mean-reverting around 10 USD".
DEFAULT_OU_REWARD = MarkovOU(initial=10.0, long_run_mean=10.0,
                             reversion_rate=0.1, volatility=2.0)


@dataclass(frozen=True)
class Scenario:
    """One attack setting: environment, reward model, and surface modifiers.

    The defaults (grinding_size=1, abort_probability=0, coalition_size=1,
    players=1, rounds=1) make every extended security condition collapse to
    the plain linear one, so "no attack surface" needs no configuration.
    grinding_cost_exponent sets how provisioning cost scales with grinding
    size G: 1 for fully parallel streams (cost G*c), 0.5 for partially
    shared hardware (cost c*sqrt(G)).

    Each field after `reward` is the scenario-file key of the same name,
    and its default sets the key's type: an int a count, a tuple a list.
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
    out = s.env.violations() + s.reward.violations()
    in_range(s.abort_probability, "abort_probability", 0.0, 1.0, out=out)
    all_in_range(s.protocol_means, "protocol_means", 0.0, out=out)
    for name, cap in (("grinding_size", _LARGEST_FLOAT),
                      ("coalition_size", _LARGEST_FLOAT),
                      ("players", MAX_PLAYERS), ("rounds", _LARGEST_FLOAT)):
        as_count(getattr(s, name), name, cap=cap, whole_floats=True, out=out)
    in_range(s.grinding_cost_exponent, "grinding_cost_exponent", 0.0, 1.0,
             "[]", out)
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
