"""Command-line front end.

Subcommands: threshold (required-delay report + verdict), equilibrium
(attack-game solution), solve (compute/idle value grid + decision
boundary), simulate (seeded profit simulation), casestudy (preset tables
and SVG figures), rerun (re-execute a recorded manifest).

Exit codes are a contract: 0 ok/secure, 1 I/O or parse error,
2 validation, unsupported input or an array too large to allocate,
3 insecure verdict. Every run that writes files also writes a
manifest.json recording the argv, the resolved scenario text, seed and
tool version; rerun parses that recorded scenario, not the file the argv
names, so it reproduces the outputs byte for byte even after the file is
edited or deleted (for deterministic subcommands, and for any fixed seed
otherwise). Tables print at 6 significant digits; files carry 17.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .casestudies import CASE_STUDY_IDS, case_study
from .core import validate_scenario
from .equilibrium import equilibrium_attack_probability
from .montecarlo import (
    SimConfig,
    commit_profit_samples,
    profit_estimate,
    write_trials_csv,
)
from .scenario_io import (
    ScenarioParseError,
    parse_scenario_file,
    parse_scenario_text,
    serialize_scenario,
)
from .stopping import (
    GridSpec,
    extract_decision_boundary,
    initial_security_verdict,
    initial_value,
    solve,
    write_boundary_csv,
    write_grid_csv,
)
from .svg import _fmt, render_line_chart
from .thresholds import esdp

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_INSECURE = 3

# exit 1; the decode errors are ValueErrors, which otherwise exit 2
_PARSE_ERRORS = (ScenarioParseError, OSError, json.JSONDecodeError,
                 UnicodeDecodeError)


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _save(args, outputs, scenario=None, grid=None, sim=None,
          seed=None) -> None:
    """Write each output, given as its text or as a writer that takes the
    file's path, into the --out directory, then manifest.json: enough to
    reproduce them exactly. Without --out, write nothing."""
    if args.out is None:
        return
    os.makedirs(args.out, exist_ok=True)
    for name, content in outputs.items():
        path = os.path.join(args.out, name)
        if callable(content):
            content(path)
        else:
            _write(path, content)
    _write(os.path.join(args.out, "manifest.json"), _json({
        "subcommand": args.subcommand,
        "argv": args._argv,
        "scenario": None if scenario is None else serialize_scenario(scenario),
        "grid": grid,
        "sim": sim,
        "seed": seed,
        "version": __version__,
        "outputs": list(outputs),
    }))


def _cmd_threshold(args, scenario) -> int:
    report = esdp(scenario, candidate_delay=args.delay)
    width = max(len(name) for name in report.required_delays)
    print(f"{'condition':<{width}}  required delay (s)")
    for name, value in report.required_delays.items():
        print(f"{name:<{width}}  {_fmt(value)}")
    print(f"ESDP: {_fmt(report.esdp)} s (binding: {report.binding_condition})")
    if report.secure is not None:
        verdict = "SECURE" if report.secure else "INSECURE"
        print(f"verdict: {verdict} at delay {_fmt(args.delay)} s")
    _save(args, {"threshold_report.json": _json({
        "required_delays_s": report.required_delays,
        "binding_condition": report.binding_condition,
        "esdp_s": report.esdp,
        "evaluated_delay_s": report.evaluated_delay,
        "secure": report.secure,
    })}, scenario=scenario)
    if report.secure is False:
        return EXIT_INSECURE
    return EXIT_OK


def _cmd_equilibrium(args, scenario) -> int:
    env = validate_scenario(scenario).env
    players = args.players if args.players is not None else scenario.players
    delay = args.delay if args.delay is not None else env.honest_delay
    expected_reward = scenario.reward.mean(horizon=delay)
    result = equilibrium_attack_probability(
        players, expected_reward, env.cost_rate, delay, env.speedup)
    print(f"players: {players}, delay: {_fmt(delay)} s, "
          f"expected reward: {_fmt(expected_reward)} USD")
    print(f"regime: {result.regime}")
    print(f"attack probability p*: {_fmt(result.attack_probability)}")
    print(f"expected attackers: {_fmt(result.expected_attackers)}")
    print(f"per-attacker profit: {_fmt(result.per_attacker_profit)} USD")
    _save(args, {"equilibrium.json": _json({
        "players": players,
        "delay_s": delay,
        "expected_reward_USD": expected_reward,
        "regime": result.regime,
        "attack_probability": result.attack_probability,
        "expected_attackers": result.expected_attackers,
        "per_attacker_profit_USD": result.per_attacker_profit,
        "residual": result.residual,
    })}, scenario=scenario)
    return EXIT_OK


def _cmd_solve(args, scenario) -> int:
    delay = scenario.env.honest_delay
    dt = args.dt if args.dt is not None else delay / 120.0
    grid = GridSpec(time_step=dt, reward_points=args.vpoints,
                    reward_max=args.vmax, quadrature_nodes=args.nodes)
    value_grid, policy_grid = solve(scenario, grid)
    v0 = scenario.reward.mean()
    j0 = initial_value(value_grid, v0)
    verdict = initial_security_verdict(value_grid)
    secure = j0 <= verdict.tolerance
    print(f"J(delay={_fmt(delay)} s, reward={_fmt(v0)} USD, seed time) = "
          f"{_fmt(j0)} USD (tolerance {_fmt(verdict.tolerance)})")
    print(f"verdict: {'SECURE' if secure else 'INSECURE'}")
    if verdict.flip_reward is not None:
        print(f"smallest insecure grid reward: {_fmt(verdict.flip_reward)} USD")

    boundary = extract_decision_boundary(policy_grid)
    _save(args, {
        "value_grid.csv":
            lambda path: write_grid_csv(value_grid, policy_grid, path),
        "boundary.csv": lambda path: write_boundary_csv(
            boundary, policy_grid.s_values, policy_grid.t_values, path),
    }, scenario=scenario, grid=asdict(grid))
    return EXIT_OK if secure else EXIT_INSECURE


def _cmd_simulate(args, scenario) -> int:
    cfg = SimConfig(trials=args.trials, seed=args.seed)
    profits, successes, stop_times = commit_profit_samples(
        scenario, cfg, delay=args.delay)
    estimate = profit_estimate(profits, cfg.confidence)
    low, high = estimate.confidence_interval
    print(f"trials: {cfg.trials}, seed: {cfg.seed}")
    print(f"mean profit: {_fmt(estimate.mean)} USD "
          f"(std error {_fmt(estimate.std_error)})")
    print(f"{_fmt(100 * cfg.confidence)}% CI: "
          f"[{_fmt(low)}, {_fmt(high)}] USD")
    print(f"positive-profit fraction: "
          f"{_fmt(estimate.positive_profit_fraction)}")
    outputs = {"profit_estimate.json": _json({
        "mean_USD": estimate.mean,
        "std_error_USD": estimate.std_error,
        "confidence": cfg.confidence,
        "confidence_interval_USD": list(estimate.confidence_interval),
        "positive_profit_fraction": estimate.positive_profit_fraction,
        "trials": cfg.trials,
    })}
    if args.csv:
        outputs["trials.csv"] = lambda path: write_trials_csv(
            path, profits, successes, stop_times)
    _save(args, outputs, scenario=scenario,
          sim={"trials": cfg.trials, "time_step": cfg.time_step,
               "confidence": cfg.confidence},
          seed=cfg.seed)
    return EXIT_OK


_CASE_CHART = {
    1: {"x_label": "delay (s)", "y_label": "expected profit (USD)"},
    2: {"x_label": "reward bound (USD)", "y_label": "required delay (s)"},
    3: {"x_label": "grinding size", "y_label": "required delay (s)",
        "x_log2": True},
    4: {"x_label": "expected MEV (USD)", "y_label": "required delay (s)"},
}


def _cmd_casestudy(args, _) -> int:
    output = case_study(args.id)
    for label, value, unit in output.headlines:
        print(f"{label}: {_fmt(value)} {unit}")
    base = f"case{args.id}"
    outputs = {f"{base}.csv": output.to_csv,
               f"{base}.json": _json(output.to_json_dict())}
    if args.svg:
        xs = [row[0] for row in output.rows]
        series = [(f"{name} ({unit})", xs, [row[i + 1] for row in output.rows])
                  for i, (name, unit)
                  in enumerate(zip(output.column_names[1:],
                                   output.column_units[1:]))]
        outputs[f"{base}.svg"] = render_line_chart(
            series, title=output.name,
            x_label=_CASE_CHART[args.id]["x_label"],
            y_label=_CASE_CHART[args.id]["y_label"],
            x_log2=_CASE_CHART[args.id].get("x_log2", False))
    _save(args, outputs)
    return EXIT_OK


def _cmd_rerun(args, _) -> int:
    with open(args.manifest, "r") as handle:
        payload = json.load(handle)
    # esdp writes no manifest for rerun itself, so such argv is malformed
    argv = payload.get("argv") if isinstance(payload, dict) else None
    if not isinstance(argv, list) or not argv or str(argv[0]) == "rerun":
        raise ScenarioParseError(
            f"manifest {args.manifest!r} carries no argv to re-run")
    scenario_text = payload.get("scenario")
    if not isinstance(scenario_text, (str, type(None))):
        raise ScenarioParseError(
            f"manifest {args.manifest!r} records a scenario that is not text")
    return _run(argv, scenario_text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdp",
        description="Economically secure delay parameters for VDF-based "
                    "randomness beacons")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    threshold = sub.add_parser(
        "threshold", help="required-delay report and ESDP for a scenario")
    threshold.add_argument("scenario", help="scenario file (key = value)")
    threshold.add_argument("--delay", type=float, default=None,
                           help="candidate delay to judge (seconds)")
    threshold.add_argument("--out", default=None,
                           help="directory for JSON report and manifest")
    threshold.set_defaults(handler=_cmd_threshold)

    equilibrium = sub.add_parser(
        "equilibrium", help="symmetric attack-game equilibrium")
    equilibrium.add_argument("scenario")
    equilibrium.add_argument("--players", type=int, default=None,
                             help="override the scenario's player count")
    equilibrium.add_argument("--delay", type=float, default=None,
                             help="override the scenario's honest delay (s)")
    equilibrium.add_argument("--out", default=None)
    equilibrium.set_defaults(handler=_cmd_equilibrium)

    solve_cmd = sub.add_parser(
        "solve", help="value grid and decision boundary for the scenario")
    solve_cmd.add_argument("scenario")
    solve_cmd.add_argument("--dt", type=float, default=None,
                           help="time step (s); default honest_delay/120")
    solve_cmd.add_argument("--vpoints", type=int, default=101,
                           help="reward grid points")
    solve_cmd.add_argument("--vmax", type=float, default=None,
                           help="reward axis truncation (USD)")
    solve_cmd.add_argument("--nodes", type=int, default=7,
                           help="quadrature nodes for reward transitions")
    solve_cmd.add_argument("--out", default=".",
                           help="directory for grid/boundary CSV (default .)")
    solve_cmd.set_defaults(handler=_cmd_solve)

    simulate = sub.add_parser(
        "simulate", help="seeded commit-strategy profit simulation")
    simulate.add_argument("scenario")
    simulate.add_argument("--trials", type=int, default=10_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--delay", type=float, default=None,
                          help="override the scenario's honest delay (s)")
    simulate.add_argument("--csv", action="store_true",
                          help="also write per-trial results")
    simulate.add_argument("--out", default=None)
    simulate.set_defaults(handler=_cmd_simulate)

    casestudy = sub.add_parser(
        "casestudy", help="regenerate a preset case study")
    casestudy.add_argument("--id", type=int, required=True,
                           choices=CASE_STUDY_IDS)
    casestudy.add_argument("--out", default=".",
                           help="output directory (default .)")
    casestudy.add_argument("--svg", action="store_true",
                           help="also render a line chart")
    casestudy.set_defaults(handler=_cmd_casestudy)

    rerun = sub.add_parser(
        "rerun", help="re-execute the command recorded in a manifest")
    rerun.add_argument("manifest")
    rerun.set_defaults(handler=_cmd_rerun)
    return parser


_FLOAT_OPTIONS = ("--delay", "--dt", "--vmax")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_float_values(argv: list[str]) -> list[str]:
    """argv with each float option joined to a value that starts with '-'
    (`--delay -1e3` -> `--delay=-1e3`). argparse reads a separate item
    such as `-1e3` or `-inf` as an option, not a value, so only the joined
    form reaches the range checks."""
    joined: list[str] = []
    for item in argv:
        if joined and joined[-1] in _FLOAT_OPTIONS \
                and item.startswith("-") and _is_float(item):
            joined[-1] += "=" + item
        else:
            joined.append(item)
    return joined


def _run(argv, scenario_text=None) -> int:
    """Parse `argv`, read its scenario once (from `scenario_text` when
    given, else from the file it names), run the handler and turn each
    error into its exit code."""
    argv = [str(piece) for piece in argv]
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_float_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    args._argv = argv
    try:
        if not hasattr(args, "scenario"):
            scenario = None
        elif scenario_text is None:
            scenario = parse_scenario_file(args.scenario)
        else:
            scenario = parse_scenario_text(scenario_text)
        return args.handler(args, scenario)
    except (*_PARSE_ERRORS, ValueError, MemoryError) as exc:
        # an empty MemoryError: a grid or trial count too large to allocate
        empty = isinstance(exc, MemoryError) and not str(exc)
        print(f"error: {'out of memory' if empty else exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, _PARSE_ERRORS) else EXIT_INVALID


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    return _run(sys.argv[1:] if argv is None else argv)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
