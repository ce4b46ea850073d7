import contextlib
import io
import json
import re
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import esdp
import esdp.cli
from esdp import core
from esdp.cli import main

BASELINE = """\
env.speedup = 3.0
env.cost_rate = 0.05
env.honest_delay = 600.0
reward.kind = exponential
reward.mean = 10.0
"""

CONSTANT_300 = """\
env.speedup = 3.0
env.cost_rate = 0.05
env.honest_delay = 300.0
reward.kind = constant
reward.value = 10.0
"""

OU_300 = """\
env.speedup = 3.0
env.cost_rate = 0.05
env.honest_delay = 300.0
reward.kind = markov_ou
reward.initial = 10.0
reward.long_run_mean = 12.0
reward.reversion_rate = 0.1
reward.volatility = 2.0
"""

# reverts so slowly that 1 - exp(-2 kappa dt) rounds to 0: the transition
# std is 2 sqrt(dt), about 48.99 USD at 600 s
SLOW_OU = BASELINE.replace("""reward.kind = exponential
reward.mean = 10.0
""", """reward.kind = markov_ou
reward.initial = 10.0
reward.long_run_mean = 10.0
reward.reversion_rate = 1e-20
reward.volatility = 2.0
grinding_size = 8
""")

# one run per subcommand that writes files: scenario text (the file goes in
# after the subcommand), the rest of the argv, and the exit code
RERUN_CASES = {
    "threshold": (BASELINE, ["threshold", "--delay", "500"], 3),
    "equilibrium": (BASELINE, ["equilibrium", "--players", "3"], 0),
    "solve": (OU_300, ["solve", "--dt", "5", "--vpoints", "31"], 3),
    "simulate": (BASELINE, ["simulate", "--trials", "400", "--seed", "5",
                            "--csv"], 0),
    "casestudy": (None, ["casestudy", "--id", "3", "--svg"], 0),
}

OU = {"reward.kind": "markov_ou", "reward.initial": "10.0",
      "reward.long_run_mean": "10.0", "reward.reversion_rate": "0.1",
      "reward.volatility": "2.0"}

# one non-finite field per scenario, and the name its error must carry
NON_FINITE = [
    ({"env.speedup": "inf"}, "speedup"),
    ({"env.cost_rate": "nan"}, "cost_rate"),
    ({"env.honest_delay": "inf"}, "honest_delay"),
    ({"reward.kind": "constant", "reward.value": "inf"}, "value"),
    ({"reward.mean": "inf"}, "mean"),
    ({"reward.kind": "lognormal", "reward.mean": "10.0",
      "reward.variance": "inf", "grinding_size": "4"}, "variance"),
    ({"reward.kind": "lognormal", "reward.mean": "nan",
      "reward.variance": "4.0"}, "mean"),
    ({"reward.kind": "empirical", "reward.samples": "1.0, nan"}, "samples"),
    ({"reward.kind": "empirical", "reward.samples": "1.0, inf"}, "samples"),
    ({"reward.kind": "bounded", "reward.max": "inf"}, "max"),
    ({**OU, "reward.initial": "inf"}, "initial"),
    ({**OU, "reward.long_run_mean": "nan"}, "long_run_mean"),
    ({**OU, "reward.reversion_rate": "inf"}, "reversion_rate"),
    ({**OU, "reward.volatility": "inf"}, "volatility"),
    ({"protocol_means": "nan, 5.0"}, "protocol_means"),
    ({"abort_probability": "nan"}, "abort_probability"),
    ({"grinding_cost_exponent": "inf"}, "grinding_cost_exponent"),
    # each moment finite, their ratio not
    ({"reward.kind": "lognormal", "reward.mean": "1e-200",
      "reward.variance": "1e300", "grinding_size": "4"}, "variance"),
]

# one out-of-range command-line number per argv, and the name its error
# must carry; the scenario file goes in after the subcommand
BAD_CLI_NUMBERS = [
    (BASELINE, ["equilibrium", "--players", "3", "--delay", "nan"], "delay"),
    (BASELINE, ["equilibrium", "--players", "3", "--delay", "-5"], "delay"),
    (CONSTANT_300, ["solve", "--dt", "5", "--vmax", "inf"], "reward_max"),
    (BASELINE, ["simulate", "--trials", "10", "--delay", "inf"], "delay"),
    (BASELINE, ["threshold", "--delay", "nan"], "candidate_delay"),
    # negative values given as their own argv item
    (BASELINE, ["threshold", "--delay", "-1e3"], "candidate_delay"),
    (CONSTANT_300, ["solve", "--dt", "-1e3"], "time_step"),
    (CONSTANT_300, ["solve", "--dt", "5", "--vmax", "-inf"], "reward_max"),
    (BASELINE, ["equilibrium", "--players", "0"], "players"),
]


@pytest.fixture
def baseline_file(tmp_path):
    path = tmp_path / "baseline.scenario"
    path.write_text(BASELINE)
    return str(path)


@pytest.fixture
def constant_300_file(tmp_path):
    path = tmp_path / "fast.scenario"
    path.write_text(CONSTANT_300)
    return str(path)


@pytest.mark.parametrize("text, argv, name", BAD_CLI_NUMBERS,
                         ids=[" ".join(argv) for _, argv, _ in BAD_CLI_NUMBERS])
def test_bad_cli_number_names_field(text, argv, name, tmp_path, capsys):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(text)
    rc = main([argv[0], str(scenario), *argv[1:], "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert name in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.fixture(scope="module")
def module_baseline_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("any_delay") / "baseline.scenario"
    path.write_text(BASELINE + "players = 5\n")
    return str(path)


@given(delay=st.floats(allow_nan=True, allow_infinity=True))
def test_any_delay_keeps_the_exit_code_contract(module_baseline_file, delay):
    # the value joined to the option and as its own argv item (`-1e3`,
    # `-inf`) must reach the same checks
    for argv in (["threshold"], ["equilibrium"],
                 ["simulate", "--trials", "100"]):
        runs = []
        for value in ([f"--delay={delay!r}"], ["--delay", repr(delay)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main([argv[0], module_baseline_file, *argv[1:], *value])
            assert rc in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
            # numpy warns once per process, so only error lines compare
            errors = [line for line in err.getvalue().splitlines()
                      if "error:" in line]
            runs.append((rc, out.getvalue(), errors))
        assert runs[0] == runs[1]


class TestThresholdCommand:
    def test_insecure_short_delay(self, baseline_file, capsys):
        rc = main(["threshold", baseline_file, "--delay", "5"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "INSECURE" in out
        assert "600" in out

    def test_secure_at_exact_equality(self, baseline_file, capsys):
        rc = main(["threshold", baseline_file, "--delay", "600"])
        assert rc == 0
        assert "SECURE" in capsys.readouterr().out

    def test_no_delay_requested(self, baseline_file, capsys):
        rc = main(["threshold", baseline_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ESDP" in out and "linear" in out

    def test_rounds_never_bind_above_linear(self, tmp_path, capsys):
        # (0.1 * 3) / 3 rounds one ulp above 0.1, which once made a
        # multiround row bind just past the linear one
        path = tmp_path / "rounds.scenario"
        path.write_text(BASELINE.replace("10.0", "0.1") + "rounds = 3\n")
        rc = main(["threshold", str(path), "--delay", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ESDP: 6 s (binding: linear)" in out
        assert "verdict: SECURE at delay 6 s" in out

    def test_empty_scenario_file(self, tmp_path):
        empty = tmp_path / "empty.scenario"
        empty.write_text("")
        assert main(["threshold", str(empty)]) == 1

    def test_missing_scenario_file(self, tmp_path):
        assert main(["threshold", str(tmp_path / "nope.scenario")]) == 1

    def test_invalid_scenario_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(BASELINE.replace("3.0", "0.5"))
        rc = main(["threshold", str(bad)])
        assert rc == 2
        assert "speedup" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, name", NON_FINITE)
    def test_non_finite_value_names_field(self, fields, name, tmp_path,
                                          capsys):
        keys = {"env.speedup": "3.0", "env.cost_rate": "0.05",
                "env.honest_delay": "600.0"}
        if "reward.kind" not in fields:
            keys.update({"reward.kind": "exponential", "reward.mean": "10.0"})
        keys.update(fields)
        bad = tmp_path / "bad.scenario"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main(["threshold", str(bad), "--delay", "700"]) == 2
        err = capsys.readouterr().err
        assert name in err
        assert "Traceback" not in err

    def test_slowly_reverting_ou_grinding_is_insecure(self, tmp_path,
                                                      capsys):
        path = tmp_path / "slow_ou.scenario"
        path.write_text(SLOW_OU)
        assert main(["threshold", str(path), "--delay", "650"]) == 3
        assert capsys.readouterr().out == (
            "condition  required delay (s)\n"
            "linear    600\n"
            "grinding  668.665\n"
            "ESDP: 668.665 s (binding: grinding)\n"
            "verdict: INSECURE at delay 650 s\n")

    def test_unconverged_quadrature_exits_two(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(core, "_MAX_SPLITS", 0)
        heavy = tmp_path / "heavy.scenario"
        heavy.write_text(BASELINE.replace(
            "reward.kind = exponential",
            "reward.kind = lognormal\nreward.variance = 1e4\ngrinding_size = 1024"))
        assert main(["threshold", str(heavy), "--delay", "700"]) == 2
        err = capsys.readouterr().err
        assert "grinding: quadrature did not converge" in err
        assert "Traceback" not in err

    def test_overflowing_composition_is_insecure(self, tmp_path, capsys):
        path = tmp_path / "composition.scenario"
        path.write_text(BASELINE + "protocol_means = 1e308, 1e308\n")
        rc = main(["threshold", str(path), "--delay", "600"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "composition  inf" in out
        assert "ESDP: inf s (binding: composition)" in out

    @pytest.mark.parametrize("mean, variance, code", [
        (1e300, 1e300, 3), (1e-200, 1e-300, 0)])
    def test_lognormal_mean_squared_out_of_range_answers(
            self, mean, variance, code, tmp_path, capsys):
        # mean ** 2 overflows at 1e300 and underflows to 0 at 1e-200
        path = tmp_path / "lognormal.scenario"
        path.write_text(BASELINE.replace(
            "reward.kind = exponential\nreward.mean = 10.0",
            f"reward.kind = lognormal\nreward.mean = {mean!r}\n"
            f"reward.variance = {variance!r}\ngrinding_size = 4"))
        assert main(["threshold", str(path), "--delay", "600"]) == code
        assert main(["simulate", str(path), "--trials", "100"]) == 0
        captured = capsys.readouterr()
        assert "grinding" in captured.out and "mean profit: " in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("mean, draws", [(1e300, 10 ** 15), (1e308, 2)])
    def test_lognormal_grinding_past_the_float_range_answers(
            self, mean, draws, tmp_path, capsys):
        # G * mean passes the largest float, while E[max] does not
        path = tmp_path / "lognormal.scenario"
        path.write_text(BASELINE.replace(
            "reward.kind = exponential\nreward.mean = 10.0",
            f"reward.kind = lognormal\nreward.mean = {mean!r}\n"
            f"reward.variance = 1e300\ngrinding_size = {draws}"))
        assert main(["threshold", str(path)]) in (0, 3)
        captured = capsys.readouterr()
        assert "grinding" in captured.out
        assert captured.err == ""

    def test_empirical_samples_near_the_largest_float(self, tmp_path,
                                                      capsys):
        path = tmp_path / "empirical.scenario"
        path.write_text("env.speedup = 1.0\nenv.cost_rate = 1e10\n"
                        "env.honest_delay = 600\nreward.kind = empirical\n"
                        "reward.samples = 1e308, 1e308\n")
        assert main(["threshold", str(path), "--delay", "1e300"]) == 0
        captured = capsys.readouterr()
        assert "ESDP: 1e+298 s (binding: linear)" in captured.out
        assert "verdict: SECURE" in captured.out
        assert captured.err == ""

    def test_json_report_written(self, baseline_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = main(["threshold", baseline_file, "--delay", "1000",
                   "--out", str(out_dir)])
        assert rc == 0
        payload = json.loads((out_dir / "threshold_report.json").read_text())
        assert payload["esdp_s"] == 600.0
        assert payload["secure"] is True
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "threshold"
        assert "env.speedup = 3.0" in manifest["scenario"]


class TestEquilibriumCommand:
    def test_interior_equilibrium(self, baseline_file, capsys):
        rc = main(["equilibrium", baseline_file, "--players", "2",
                   "--delay", "450"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0.666667" in out
        assert "interior" in out

    def test_no_attack_above_dominance(self, baseline_file, capsys):
        rc = main(["equilibrium", baseline_file, "--players", "4",
                   "--delay", "720"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no-attack" in out
        assert "p*: 0" in out

    def test_zero_players_is_validation_error(self, baseline_file):
        assert main(["equilibrium", baseline_file, "--players", "0"]) == 2

    def test_players_past_the_cap_exit_two_naming_it(self, baseline_file,
                                                      capsys):
        rc = main(["equilibrium", baseline_file, "--players",
                   "100000000000000000000", "--delay", "150"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "players must be an integer >= 1 and <= 1e+09" in err
        assert "Traceback" not in err

    def test_validator_scale_is_quick(self, baseline_file, capsys):
        start = time.perf_counter()
        rc = main(["equilibrium", baseline_file, "--players", "1000000",
                   "--delay", "150"])
        assert time.perf_counter() - start < 0.3
        assert rc == 0
        assert "regime: interior" in capsys.readouterr().out


class TestSolveCommand:
    def test_secure_break_even(self, tmp_path, capsys):
        scenario = tmp_path / "const600.scenario"
        scenario.write_text(CONSTANT_300.replace("300.0", "600.0"))
        out_dir = tmp_path / "solve600"
        rc = main(["solve", str(scenario), "--dt", "1", "--vpoints", "101",
                   "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "SECURE" in out
        assert (out_dir / "value_grid.csv").exists()
        assert (out_dir / "boundary.csv").exists()
        header = (out_dir / "value_grid.csv").read_text().splitlines()[0]
        assert header == "s(s),v(USD),t(s),J(USD),compute"

    def test_insecure_short_delay(self, constant_300_file, tmp_path, capsys):
        rc = main(["solve", constant_300_file, "--dt", "1",
                   "--out", str(tmp_path / "solve300")])
        out = capsys.readouterr().out
        assert rc == 3
        assert "INSECURE" in out
        assert "J(delay=300" in out

    @pytest.mark.parametrize("nodes, code", [("400", 2), ("100", 3)])
    def test_quadrature_nodes_are_capped(self, tmp_path, nodes, code,
                                         capsys):
        # numpy's Gauss-Hermite weights sum to 0 at 371 nodes, which
        # printed J = nan; the cap stops the count first
        path = tmp_path / "ou.scenario"
        path.write_text(OU_300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", str(path), "--dt", "20", "--vpoints", "21",
                       "--nodes", nodes, "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == code
        if code == 2:
            assert captured.err == ("error: quadrature_nodes must be an "
                                    "integer >= 1 and <= 100 (got 400)\n")
        else:
            assert "nan" not in captured.out

    def test_distribution_model_unsupported(self, baseline_file, tmp_path,
                                            capsys):
        rc = main(["solve", baseline_file, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "constant, markov_ou" in capsys.readouterr().err

    def test_unallocatable_grid_exits_two(self, constant_300_file, tmp_path,
                                          monkeypatch, capsys):
        # stands in for `--vpoints 10000000`; a real allocation that large
        # can succeed lazily under overcommit and then exhaust memory
        message = ("Unable to allocate 370. GiB for an array with shape "
                   "(301, 165, 10000000) and data type float64")

        def solve(*args):
            raise MemoryError(message)

        monkeypatch.setattr(esdp.cli, "solve", solve)
        rc = main(["solve", constant_300_file, "--dt", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulateCommand:
    def test_break_even_interval_contains_zero(self, tmp_path, capsys):
        scenario = tmp_path / "c600.scenario"
        scenario.write_text(CONSTANT_300.replace("300.0", "600.0"))
        rc = main(["simulate", str(scenario), "--trials", "2000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean profit: " in out

    def test_profitable_delay_mean_five(self, constant_300_file, capsys):
        rc = main(["simulate", constant_300_file, "--trials", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean profit: 5 USD" in out

    def test_zero_trials_rejected(self, baseline_file):
        assert main(["simulate", baseline_file, "--trials", "0"]) == 2

    @pytest.mark.parametrize("seed, code", [
        (-1, 2), (2 ** 64, 2), (2 ** 64 - 1, 0)])
    def test_seed_range(self, baseline_file, seed, code, capsys):
        assert main(["simulate", baseline_file, "--trials", "10",
                     "--seed", str(seed)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert "seed must be an integer >= 0 and <= 1.84467e+19 " \
                f"(got {seed})" in captured.err
        else:
            assert f"seed: {seed}" in captured.out

    def test_slowly_reverting_ou_draws_spread(self, tmp_path, capsys):
        path = tmp_path / "slow_ou.scenario"
        path.write_text(SLOW_OU)
        assert main(["simulate", str(path), "--trials", "400",
                     "--delay", "400"]) == 0
        out = capsys.readouterr().out
        # each draw spreads by about 2 sqrt(400) = 40 USD
        std_error = float(re.search(r"std error ([^)]+)\)", out).group(1))
        assert 1.0 < std_error < 3.0

    def test_unallocatable_trial_count_exits_two(self, baseline_file,
                                                 monkeypatch, capsys):
        def commit_profit_samples(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(esdp.cli, "commit_profit_samples",
                            commit_profit_samples)
        assert main(["simulate", baseline_file, "--trials", "10"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_attack_cost_past_the_float_range_exits_two(self, tmp_path,
                                                        capsys):
        path = tmp_path / "costly.scenario"
        path.write_text(BASELINE.replace("0.05", "1e10"))
        assert main(["simulate", str(path), "--delay", "1e300",
                     "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: attack cost cost_rate*delay/speedup "
                                "must be finite (got inf at delay 1e+300)\n")

    def test_csv_and_manifest_outputs(self, baseline_file, tmp_path):
        out_dir = tmp_path / "sim"
        rc = main(["simulate", baseline_file, "--trials", "500",
                   "--seed", "11", "--csv", "--out", str(out_dir)])
        assert rc == 0
        lines = (out_dir / "trials.csv").read_text().splitlines()
        assert len(lines) == 501
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert "trials.csv" in manifest["outputs"]

    def test_unit_speedup_csv_has_every_trial(self, tmp_path, capsys):
        # completion at the reveal fails, so every trial pays the cost
        scenario = tmp_path / "s1.scenario"
        scenario.write_text(BASELINE.replace("3.0", "1.0"))
        out_dir = tmp_path / "sim"
        assert main(["simulate", str(scenario), "--trials", "500", "--csv",
                     "--out", str(out_dir)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = (out_dir / "trials.csv").read_text().splitlines()[1:]
        assert len(rows) == 500
        assert {row.split(",", 1)[1] for row in rows} == {"-30,0,600"}

    @pytest.mark.parametrize("name", list(RERUN_CASES))
    def test_rerun_reproduces_bytes(self, name, tmp_path):
        text, argv, code = RERUN_CASES[name]
        if text is not None:
            scenario = tmp_path / "s.scenario"
            scenario.write_text(text)
            argv = [argv[0], str(scenario), *argv[1:]]
        out_dir = tmp_path / "out"
        assert main([*argv, "--out", str(out_dir)]) == code
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(path.name for path in out_dir.iterdir()) == \
            sorted([*manifest["outputs"], "manifest.json"])
        first = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        assert main(["rerun", str(out_dir / "manifest.json")]) == code
        assert {path.name: path.read_bytes()
                for path in out_dir.iterdir()} == first


    @pytest.mark.parametrize("change", ["edited", "deleted"])
    @pytest.mark.parametrize("name", [name for name, (text, _, _)
                                      in RERUN_CASES.items() if text])
    def test_rerun_reads_the_recorded_scenario(self, name, change, tmp_path,
                                               capsys):
        # the manifest records the scenario, so what happens to the file
        # after the run does not reach the rerun
        text, argv, code = RERUN_CASES[name]
        scenario = tmp_path / "s.scenario"
        scenario.write_text(text)
        out_dir = tmp_path / "out"
        assert main([argv[0], str(scenario), *argv[1:],
                     "--out", str(out_dir)]) == code
        stdout = capsys.readouterr().out
        first = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        if change == "edited":
            scenario.write_text(text.replace("env.cost_rate = 0.05",
                                             "env.cost_rate = 0.5")
                                + "abort_probability = 0.5\n")
        else:
            scenario.unlink()
        for name in first:
            if name != "manifest.json":
                (out_dir / name).unlink()
        assert main(["rerun", str(out_dir / "manifest.json")]) == code
        assert capsys.readouterr().out == stdout
        assert {path.name: path.read_bytes()
                for path in out_dir.iterdir()} == first

    def test_rerun_manifest_scenario_must_be_text(self, baseline_file,
                                                  tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            {"argv": ["threshold", baseline_file], "scenario": 5}))
        assert main(["rerun", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert "records a scenario that is not text" in err
        assert "Traceback" not in err


class TestCaseStudyCommand:
    @pytest.mark.parametrize("case_id", ["1", "2", "3", "4"])
    def test_each_case_writes_outputs(self, case_id, tmp_path, capsys):
        out_dir = tmp_path / f"case{case_id}"
        rc = main(["casestudy", "--id", case_id, "--out", str(out_dir),
                   "--svg"])
        assert rc == 0
        assert (out_dir / f"case{case_id}.csv").exists()
        assert (out_dir / f"case{case_id}.json").exists()
        svg = (out_dir / f"case{case_id}.svg").read_text()
        root = ET.fromstring(svg)  # well-formed XML
        assert root.tag.endswith("svg")
        assert "href" not in svg and "<script" not in svg
        assert "url(" not in svg

    def test_case1_headlines_printed(self, tmp_path, capsys):
        rc = main(["casestudy", "--id", "1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        for value in ("600", "3000", "6000"):
            assert value in out

    def test_unknown_id_exits_two(self, capsys):
        assert main(["casestudy", "--id", "9"]) == 2


class TestMiscellaneous:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "esdp" in capsys.readouterr().out

    def test_no_subcommand_usage_error(self):
        assert main([]) == 2

    def test_rerun_missing_manifest(self, tmp_path):
        assert main(["rerun", str(tmp_path / "none.json")]) == 1

    def test_rerun_manifest_without_argv(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["rerun", str(bad)]) == 1

    def test_rerun_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["rerun", str(bad)]) == 1

    @pytest.mark.parametrize("payload", [
        [1, 2], {"argv": ["rerun", "self.json"]}],
        ids=["not-an-object", "reruns-itself"])
    def test_rerun_malformed_manifest(self, payload, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        Path("self.json").write_text(json.dumps(payload))
        assert main(["rerun", "self.json"]) == 1
        err = capsys.readouterr().err
        assert "carries no argv to re-run" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["threshold", "rerun"])
    def test_non_utf8_input_is_a_parse_error(self, command, tmp_path, capsys):
        # a stray 0xff byte after a scenario or manifest that is otherwise fine
        text = BASELINE if command == "threshold" \
            else json.dumps({"argv": ["casestudy", "--id", "1"]})
        path = tmp_path / "input"
        path.write_bytes(text.encode() + b"\xff\n")
        assert main([command, str(path)]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["players", "grinding_size",
                                      "coalition_size", "rounds"])
    def test_a_400_digit_count_is_a_validation_error(self, name, tmp_path,
                                                      capsys):
        path = tmp_path / "huge.scenario"
        path.write_text(BASELINE + f"{name} = 1{'0' * 400}\n")
        assert main(["threshold", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{name} must be an integer" in err
        assert "Traceback" not in err

    def test_inexact_count_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "big.scenario"
        path.write_text(BASELINE + "grinding_size = 9007199254740993.0\n")
        assert main(["threshold", str(path)]) == 1
        err = capsys.readouterr().err
        assert "grinding_size" in err
        assert "Traceback" not in err

    def test_package_exports(self):
        from esdp import core, equilibrium, montecarlo, stopping, thresholds
        modules = (core, equilibrium, montecarlo, stopping, thresholds)
        names = [name for module in modules for name in module.__all__]
        assert len(set(names)) == len(names)
        assert len(set(esdp.__all__)) == len(esdp.__all__)
        assert set(esdp.__all__) == {"__version__", *names}
        for module in modules:
            for name in module.__all__:
                assert getattr(esdp, name) is getattr(module, name), name

    def test_import_loads_no_scipy(self):
        code = ("import sys, esdp.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=Path(esdp.__file__).parents[1]).stdout
        assert out.strip() == "[]"

    def test_import_loads_no_web_client(self):
        # html.escape, not xml.sax, escapes SVG text; urllib.parse alone
        # comes in, through the standard library's pathlib
        code = ("import sys, esdp.cli; "
                "print([m for m in sys.modules if m.split('.')[0] in "
                "('xml', 'http', 'ssl', 'email', 'urllib') "
                "and m not in ('urllib', 'urllib.parse')])")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=Path(esdp.__file__).parents[1]).stdout
        assert out.strip() == "[]"

    def test_python_m_runs_the_cli(self, tmp_path):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(BASELINE)
        proc = subprocess.run(
            [sys.executable, "-m", "esdp.cli", "threshold", str(scenario),
             "--delay", "1"], capture_output=True, text=True,
            cwd=Path(esdp.__file__).parents[1])
        assert proc.returncode == 3
        assert "verdict: INSECURE" in proc.stdout


def run_fresh(code, *args):
    """Run `code` in a fresh interpreter that imports esdp from this
    checkout; returns the completed process."""
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True,
        text=True, cwd=Path(esdp.__file__).parents[1])


# runs the CLI on argv, then prints whether numpy was loaded
CLI_THEN_NUMPY = """\
import sys
from esdp.cli import main
code = main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules)
sys.exit(code)
"""


class TestImportContract:
    def test_import_esdp_loads_no_submodule_and_no_numpy(self):
        proc = run_fresh(
            "import sys, esdp; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('esdp', 'numpy')))")
        assert proc.stdout.strip() == "['esdp']"

    @pytest.mark.parametrize("argv, code", [
        (["threshold", "{path}"], 0),
        (["threshold", "{path}", "--delay", "1"], 3),
        (["--version"], 0)])
    def test_cli_runs_without_numpy(self, argv, code, baseline_file):
        proc = run_fresh(CLI_THEN_NUMPY,
                         *(a.format(path=baseline_file) for a in argv))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.splitlines()[-1] == "numpy loaded: False"
        assert proc.stderr == ""

    def test_lognormal_grinding_report_is_unchanged(self, tmp_path):
        path = tmp_path / "grind.scenario"
        path.write_text(BASELINE.replace(
            "reward.kind = exponential\nreward.mean = 10.0",
            "reward.kind = lognormal\nreward.mean = 10.0\n"
            "reward.variance = 1e4\ngrinding_size = 1024\n"
            "grinding_cost_exponent = 0.5"))
        proc = run_fresh(CLI_THEN_NUMPY, "threshold", path, "--delay", 700)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == (
            "condition  required delay (s)\n"
            "linear    600\n"
            "grinding  2868.78\n"
            "ESDP: 2868.78 s (binding: grinding)\n"
            "verdict: INSECURE at delay 700 s\n"
            "numpy loaded: True\n")

    def test_star_import_and_dir_give_every_exported_name(self):
        proc = run_fresh(
            "import esdp\n"
            "names = {}\n"
            "exec('from esdp import *', names)\n"
            "print([n for n in esdp.__all__ if n not in names])\n"
            "print([n for n in esdp.__all__ if n not in dir(esdp)])\n"
            "print(len(esdp.__all__))\n")
        missing_star, missing_dir, count = proc.stdout.splitlines()
        assert (missing_star, missing_dir) == ("[]", "[]")
        assert int(count) == len(esdp.__all__)
