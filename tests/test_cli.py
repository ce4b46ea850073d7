import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import esdp
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

    def test_unconverged_quadrature_exits_two(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr(core, "_PANEL_WIDTH", 4.0)
        heavy = tmp_path / "heavy.scenario"
        heavy.write_text(BASELINE.replace(
            "reward.kind = exponential",
            "reward.kind = lognormal\nreward.variance = 1e4\ngrinding_size = 16"))
        assert main(["threshold", str(heavy), "--delay", "700"]) == 2
        err = capsys.readouterr().err
        assert "grinding: quadrature did not converge" in err
        assert "Traceback" not in err

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

    def test_distribution_model_unsupported(self, baseline_file, tmp_path,
                                            capsys):
        rc = main(["solve", baseline_file, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "constant, markov_ou" in capsys.readouterr().err


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

    def test_rerun_reproduces_bytes(self, baseline_file, tmp_path):
        out_dir = tmp_path / "sim"
        args = ["simulate", baseline_file, "--trials", "400", "--seed", "5",
                "--csv", "--out", str(out_dir)]
        assert main(args) == 0
        first = (out_dir / "trials.csv").read_bytes()
        first_manifest = (out_dir / "manifest.json").read_bytes()
        assert main(["rerun", str(out_dir / "manifest.json")]) == 0
        assert (out_dir / "trials.csv").read_bytes() == first
        assert (out_dir / "manifest.json").read_bytes() == first_manifest


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

    def test_default_out_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("ESDP_OUT_DIR", str(target))
        assert main(["casestudy", "--id", "2"]) == 0
        assert (target / "case2.csv").exists()


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

    def test_import_loads_no_scipy(self):
        code = ("import sys, esdp.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=Path(esdp.__file__).parents[1]).stdout
        assert out.strip() == "[]"
