"""Scenario file grammar: flat `key = value` lines.

Dotted keys express the two nested tables (`env.*`, `reward.*`), `#`
starts a comment, and lists are comma separated. Example::

    # baseline attack setting
    env.speedup = 3.0
    env.cost_rate = 0.05
    env.honest_delay = 600.0
    reward.kind = exponential
    reward.mean = 10.0
    abort_probability = 0.25

Keys map one-to-one onto Scenario fields; unknown, duplicate or malformed
keys are parse errors (validation of the resulting values is a separate
stage). Serialization is canonical, so parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

from dataclasses import fields

from .core import (
    Bounded,
    Constant,
    EconomicEnvironment,
    Empirical,
    Exponential,
    Lognormal,
    MarkovOU,
    RewardModel,
    Scenario,
)

__all__ = [
    "ScenarioParseError",
    "parse_scenario_text",
    "parse_scenario_file",
    "serialize_scenario",
]


class ScenarioParseError(Exception):
    """Malformed scenario text: syntax, unknown/duplicate/missing keys, or
    values of the wrong shape."""


# each reward class and its file keys, in the order of its dataclass fields
_REWARD_KEYS: dict[type[RewardModel], tuple[str, ...]] = {
    Constant: ("value",),
    Exponential: ("mean",),
    Lognormal: ("mean", "variance"),
    Empirical: ("samples",),
    Bounded: ("max",),
    MarkovOU: ("initial", "long_run_mean", "reversion_rate", "volatility"),
}
_REWARD_KINDS = {cls.kind: cls for cls in _REWARD_KEYS}
_LIST_KEYS = {"protocol_means", "reward.samples"}


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioParseError(f"{key}: expected a number, got {raw!r}") \
            from None


def _parse_count(key: str, raw: str) -> int:
    value = _parse_float(key, raw)
    if not value.is_integer():
        raise ScenarioParseError(f"{key}: expected an integer, got {raw!r}")
    return int(value)


def _parse_list(key: str, raw: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in raw.split(",")]
    if items == [""]:
        raise ScenarioParseError(f"{key}: expected a comma-separated list")
    return tuple(_parse_float(key, piece) for piece in items)


def parse_scenario_text(text: str) -> Scenario:
    """Parse scenario text into a Scenario (not yet validated)."""
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(
                f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ScenarioParseError(f"line {lineno}: empty key")
        if key in entries:
            raise ScenarioParseError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    def take(key, parser, default=None):
        if key not in entries:
            if default is None:
                raise ScenarioParseError(f"missing required key {key!r}")
            return default
        return parser(key, entries.pop(key))

    env = EconomicEnvironment(
        speedup=take("env.speedup", _parse_float),
        cost_rate=take("env.cost_rate", _parse_float),
        honest_delay=take("env.honest_delay", _parse_float),
        seed_time=take("env.seed_time", _parse_float, default=0.0),
    )
    reward = _parse_reward(entries)
    scenario = Scenario(
        env=env,
        reward=reward,
        grinding_size=take("grinding_size", _parse_count, default=1),
        abort_probability=take("abort_probability", _parse_float, default=0.0),
        protocol_means=take("protocol_means", _parse_list, default=()),
        coalition_size=take("coalition_size", _parse_count, default=1),
        players=take("players", _parse_count, default=1),
        rounds=take("rounds", _parse_count, default=1),
        grinding_cost_exponent=take("grinding_cost_exponent", _parse_float,
                                    default=1.0),
    )
    if entries:
        unknown = ", ".join(sorted(entries))
        raise ScenarioParseError(f"unknown keys: {unknown}")
    return scenario


def _parse_reward(entries: dict[str, str]) -> RewardModel:
    if "reward.kind" not in entries:
        raise ScenarioParseError("missing required key 'reward.kind'")
    kind = entries.pop("reward.kind")
    if kind not in _REWARD_KINDS:
        raise ScenarioParseError(
            f"reward.kind: unknown kind {kind!r}; "
            f"valid kinds: {', '.join(sorted(_REWARD_KINDS))}")
    cls = _REWARD_KINDS[kind]
    values = []
    for name in _REWARD_KEYS[cls]:
        key = f"reward.{name}"
        if key not in entries:
            raise ScenarioParseError(
                f"missing required key {key!r} for reward.kind = {kind}")
        raw = entries.pop(key)
        values.append(_parse_list(key, raw) if key in _LIST_KEYS
                      else _parse_float(key, raw))
    return cls(*values)


def parse_scenario_file(path) -> Scenario:
    with open(path, "r") as handle:
        return parse_scenario_text(handle.read())


def _line(key: str, value) -> str:
    """`key = value` with every float written as repr(float(x)), so numpy
    scalars read back the same as Python floats."""
    if key in _LIST_KEYS:
        return f"{key} = {', '.join(repr(float(x)) for x in value)}"
    return f"{key} = {float(value)!r}"


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; floats use repr so round-trips are exact."""
    reward = s.reward
    keys = _REWARD_KEYS.get(type(reward))
    if keys is None:
        raise ScenarioParseError(
            f"cannot serialize reward model kind {reward.kind!r}")
    lines = [_line(f"env.{field.name}", getattr(s.env, field.name))
             for field in fields(s.env)]
    lines.append(f"reward.kind = {reward.kind}")
    lines += [_line(f"reward.{key}", getattr(reward, field.name))
              for key, field in zip(keys, fields(reward))]
    lines += [f"grinding_size = {s.grinding_size}",
              _line("abort_probability", s.abort_probability)]
    if s.protocol_means:
        lines.append(_line("protocol_means", s.protocol_means))
    lines += [
        f"coalition_size = {s.coalition_size}",
        f"players = {s.players}",
        f"rounds = {s.rounds}",
        _line("grinding_cost_exponent", s.grinding_cost_exponent),
    ]
    return "\n".join(lines) + "\n"
