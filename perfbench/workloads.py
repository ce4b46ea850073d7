"""The three benchmark workloads: seeded operations, how to run one, and
how to check its outputs against perfbench.reference.

Each workload yields an endless, seed-determined sequence of `Op`s; the
harness in run.py runs them closed-loop, one at a time, until time is up.
CLI workloads hand the program only argv lists and scenario files; the
in-process workloads hand it scenario text. `check` returns None for a
correct output, else the reason it is wrong.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

ENTRY = "from esdp.cli import entrypoint; entrypoint()"
SIX_SIG = 1e-5  # tables print 6 significant digits
# rollout interval for the DP cross-check: 4.4 standard errors, so an
# unbiased grid fails about once in 1e5 operations
CONFIDENCE = 0.99999


@dataclass
class Op:
    index: int
    kind: str
    argv: list | None = None
    data: dict = field(default_factory=dict)


@dataclass
class Result:
    latency: float
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    rss_mb: float | None = None
    value: object = None


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def count_lines(path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n")
                   for chunk in iter(lambda: handle.read(1 << 20), b""))


def digest(directory) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir())}


def close(observed, expected, rtol) -> bool:
    return math.isclose(observed, expected, rel_tol=rtol, abs_tol=1e-300)


# ------------------------------------------------------------------ CLI

class CliWorkload:
    """Operations are `esdp` invocations: in a fresh process (end-to-end
    runs) or through `esdp.cli.main(argv)` in this process (traced runs
    and the untraced phase they are compared with)."""

    in_process = False

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool,
                 child_env: dict):
        self.root, self.work, self.seed, self.tiny = root, work, seed, tiny
        self.child_env = child_env
        self.snapshots: dict[int, tuple] = {}

    def rel(self, path: Path) -> str:
        return os.path.relpath(path, self.root)

    def op_dir(self, index: int) -> Path:
        path = self.work / f"op{index}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def run(self, op: Op, in_process: bool) -> Result:
        if in_process:
            return self._call(op.argv)
        return self._spawn(op.argv, self.op_dir(op.index))

    def _spawn(self, argv, directory: Path) -> Result:
        out_path, err_path = directory / "stdout.txt", directory / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv],
                                    cwd=self.root, env=self.child_env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Result(latency, proc.returncode, out_path.read_text(),
                        err_path.read_text(), usage.ru_maxrss / 1024.0)
        out_path.unlink()
        err_path.unlink()
        return result

    def _call(self, argv) -> Result:
        import esdp.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = esdp.cli.main(argv)
            except Exception:  # reported as a failed op, like a traceback
                code = None
                traceback.print_exc()
            latency = time.perf_counter() - start
        return Result(latency, code, out.getvalue(), err.getvalue())

    def finish(self, op: Op) -> None:
        """Drop an op's files unless a later rerun needs them."""
        if op.kind == "rerun":
            shutil.rmtree(self.work / f"op{op.data['target']}",
                          ignore_errors=True)
            self.snapshots.pop(op.data["target"], None)
        if not op.data.get("keep"):
            shutil.rmtree(self.work / f"op{op.index}", ignore_errors=True)

    def check(self, op: Op, res: Result):
        if res.code not in (0, 1, 2, 3) or "Traceback" in res.stderr:
            return f"exit {res.code}, stderr {res.stderr[-200:]!r}"
        if op.data.get("keep"):
            self.snapshots[op.index] = (res.code, res.stdout,
                                        digest(self.root / op.data["out"]))
        return getattr(self, f"_check_{op.kind}")(op, res)

    def corrupt(self, op: Op, res: Result, kind: str) -> None:
        """Inject a wrong exit code or wrong output, for the self-test."""
        if kind == "exit":
            res.code = 3 if res.code == 0 else 0
            return
        res.stdout = res.stdout.swapcase().replace("0", "9")
        res.stderr = res.stderr.replace("error", "notice")
        if "out" in op.data:
            for path in (self.root / op.data["out"]).iterdir():
                path.write_text("corrupted\n")

    # ------------------------------------------------------- generators

    def _scenario_file(self, index, spec, rng) -> str:
        path = self.op_dir(index) / "scenario.txt"
        path.write_text(ref.scenario_text(spec, rng))
        return self.rel(path)

    def _casestudy(self, i, case_id, svg) -> Op:
        out = self.rel(self.op_dir(i) / "out")
        argv = ["casestudy", "--id", str(case_id), "--out", out]
        if svg:
            argv.append("--svg")
        return Op(i, "casestudy", argv, {"id": case_id, "svg": svg,
                                         "out": out})

    def _rerun(self, i, target: Op) -> Op:
        """Rerun of `target`, which must have been made with "keep"."""
        manifest = f"{target.data['out']}/manifest.json"
        return Op(i, "rerun", ["rerun", manifest],
                  {"target": target.index, "out": target.data["out"]})

    # ----------------------------------------------------------- checks

    def _check_casestudy(self, op, res):
        if res.code != 0:
            return f"casestudy exit {res.code}"
        case_id, out = op.data["id"], self.root / op.data["out"]
        want = ref.case_study_headlines(case_id)
        printed = {}
        for line in res.stdout.splitlines():
            label, _, rest = line.partition(": ")
            printed[label] = float(rest.split()[0])
        doc = read_json(out / f"case{case_id}.json")
        filed = {h["label"]: h["value"] for h in doc["headlines"]}
        for label, value in want.items():
            if label not in printed or not close(printed[label], value,
                                                 SIX_SIG):
                return (f"case {case_id} {label}: printed "
                        f"{printed.get(label)}, expected {value}")
            if not close(filed.get(label, math.nan), value, 1e-12):
                return (f"case {case_id} {label}: json {filed.get(label)}"
                        f", expected {value}")
        rows = count_lines(out / f"case{case_id}.csv")
        if rows != ref.CASE_STUDY_ROWS[case_id] + 1:
            return f"case{case_id}.csv has {rows} lines"
        if op.data["svg"]:
            root = ElementTree.parse(out / f"case{case_id}.svg").getroot()
            if not root.tag.endswith("svg"):
                return f"case{case_id}.svg root is {root.tag}"
        return self._check_manifest(out)

    def _check_manifest(self, out: Path):
        manifest = read_json(out / "manifest.json")
        missing = [name for name in manifest["outputs"]
                   if not (out / name).is_file()]
        return f"manifest lists missing {missing}" if missing else None

    def _check_rerun(self, op, res):
        code, stdout, files = self.snapshots[op.data["target"]]
        if res.code != code or res.stdout != stdout:
            return (f"rerun exit {res.code} / stdout differ from op "
                    f"{op.data['target']}")
        now = digest(self.root / op.data["out"])
        if now != files:
            changed = sorted(k for k in set(now) | set(files)
                             if now.get(k) != files.get(k))
            return f"rerun changed bytes of {changed}"
        return None

def compare_thresholds(spec, want, got, got_esdp, binding, rtol, delay,
                       code):
    """Check one ESDP report against the closed forms."""
    if set(got) != set(want):
        return f"conditions {sorted(got)} != {sorted(want)}"
    for name, value in want.items():
        tol = max(rtol, ref.grinding_rtol(spec)) if name == "grinding" \
            else rtol
        if not close(got[name], value, tol):
            return f"{name} delay {got[name]!r} != {value!r}"
    esdp_want = max(want.values())
    tol = max(rtol, ref.grinding_rtol(spec))
    if not close(got_esdp, esdp_want, tol):
        return f"ESDP {got_esdp!r} != {esdp_want!r}"
    if binding not in want or want[binding] < esdp_want * (1 - tol):
        return f"binding {binding!r} is not a maximal condition"
    if delay is not None and abs(delay / esdp_want - 1.0) > tol:
        expected_code = 0 if delay >= esdp_want else 3
        if code != expected_code:
            return (f"exit {code} at delay {delay:.6g}, ESDP "
                    f"{esdp_want:.6g}")
    return None


class Export(CliWorkload):
    """Fresh `esdp` processes that write files: the full value grid, a
    1e6-trial CSV, a case-study SVG, and a byte-identical rerun."""

    def ops(self):
        rng = np.random.default_rng(self.seed)
        i = 0
        while True:
            solve = self._solve(i, rng)
            solve.data["keep"] = True  # for the rerun
            yield solve
            yield self._simulate(i + 1, rng)
            yield self._casestudy(i + 2, i // 4 % 4 + 1, svg=True)
            yield self._rerun(i + 3, solve)
            i += 4

    def _solve(self, i, rng) -> Op:
        # small OU grid, full dump: 61 x 21 x 401 cells, about 22 MB of CSV
        dt, vpoints = (10.0, 401) if not self.tiny else (60.0, 21)
        spec = {"env": {"speedup": 3.0,
                        "cost_rate": float(rng.uniform(0.02, 0.08)),
                        "honest_delay": 600.0},
                "reward": ref.draw_reward(rng, "markov_ou")}
        out = self.rel(self.op_dir(i) / "out")
        argv = ["solve", self._scenario_file(i, spec, rng), "--dt", repr(dt),
                "--vpoints", str(vpoints), "--out", out]
        return Op(i, "solve", argv, {"spec": spec, "dt": dt,
                                     "vpoints": vpoints, "out": out})

    def _simulate(self, i, rng) -> Op:
        # heavy lognormal tails make a 1e6-trial mean too noisy to check
        kinds = [k for k in ref.KINDS if k != "lognormal"]
        spec = ref.draw_scenario(rng, kinds[int(rng.integers(len(kinds)))])
        trials = 10 ** 6 if not self.tiny else 10 ** 4
        out = self.rel(self.op_dir(i) / "out")
        argv = ["simulate", self._scenario_file(i, spec, rng), "--trials",
                str(trials), "--seed", str(int(rng.integers(2 ** 31))),
                "--csv", "--out", out]
        return Op(i, "simulate", argv, {"spec": spec, "trials": trials,
                                        "out": out})

    def _check_solve(self, op, res):
        if res.code not in (0, 3):
            return f"solve exit {res.code}"
        verdict = "SECURE" if res.code == 0 else "INSECURE"
        if f"verdict: {verdict}\n" not in res.stdout:
            return f"exit {res.code} but stdout says otherwise"
        speedup, _, delay = ref.env_of(op.data["spec"])
        n_t = round(delay / op.data["dt"]) + 1
        n_s = math.ceil(delay / (speedup * op.data["dt"]) - 1e-12) + 1
        out = self.root / op.data["out"]
        cells = count_lines(out / "value_grid.csv") - 1
        if cells != n_s * op.data["vpoints"] * n_t:
            return f"value_grid.csv has {cells} rows"
        if count_lines(out / "boundary.csv") - 1 != n_s * n_t:
            return "boundary.csv row count"
        return self._check_manifest(out)

    def _check_simulate(self, op, res):
        if res.code != 0:
            return f"simulate exit {res.code}"
        spec, out = op.data["spec"], self.root / op.data["out"]
        doc = read_json(out / "profit_estimate.json")
        speedup, cost, delay = ref.env_of(spec)
        mean = ref.simulated_reward_mean(spec["reward"], delay) \
            - cost * delay / speedup
        if doc["trials"] != op.data["trials"]:
            return f"trials {doc['trials']}"
        if abs(doc["mean_USD"] - mean) > 6.0 * doc["std_error_USD"] \
                + 1e-9 * max(1.0, abs(mean)):
            return (f"mean profit {doc['mean_USD']:.6g} vs closed form "
                    f"{mean:.6g} (se {doc['std_error_USD']:.3g})")
        if count_lines(out / "trials.csv") != op.data["trials"] + 1:
            return "trials.csv row count"
        return self._check_manifest(out)


# ------------------------------------------------------------ in-process

class InProcess:
    """Operations are calls into the package from this process."""

    in_process = True

    def __init__(self, root: Path, work: Path, seed: int, tiny: bool,
                 child_env: dict):
        self.root, self.work, self.seed, self.tiny = root, work, seed, tiny
        work.mkdir(parents=True, exist_ok=True)

    def finish(self, op: Op) -> None:
        pass


class ClosedFormBatch(InProcess):
    """parse -> esdp() -> equilibrium -> serialize -> parse, per scenario."""

    # irrational steps: each run covers log G, log n and the equilibrium
    # regime evenly, so its mix of cheap and dear operations barely moves
    # with the seed
    STEPS = np.array([math.sqrt(2.0) - 1.0, (math.sqrt(5.0) - 1.0) / 2.0,
                      math.sqrt(3.0) - 1.0])

    def ops(self):
        rng = np.random.default_rng(self.seed)
        start = rng.random(3)
        i = 0
        while True:
            u = (start + i * self.STEPS) % 1.0
            # the six kinds in turn, with and without grinding
            spec = ref.draw_scenario(rng, ref.KINDS[i % 6],
                                     grinding=(i // 6) % 2 == 0,
                                     spread=(u[0], u[1]))
            want = ref.required_delays(spec)
            delay = ref.candidate_delay(rng, max(want.values()))
            yield Op(i, "scenario", None, {
                "spec": spec, "text": ref.scenario_text(spec, rng),
                "want": want, "delay": delay,
                "eq_delay": ref.equilibrium_delay(rng, spec, u[2])})
            i += 1

    def run(self, op: Op, in_process: bool = True) -> Result:
        from esdp import equilibrium, scenario_io, thresholds
        d = op.data
        start = time.perf_counter()
        scenario = scenario_io.parse_scenario_text(d["text"])
        report = thresholds.esdp(scenario, candidate_delay=d["delay"])
        env = scenario.env
        ev = scenario.reward.mean(horizon=d["eq_delay"])
        eq = equilibrium.equilibrium_attack_probability(
            scenario.players, ev, env.cost_rate, d["eq_delay"], env.speedup)
        text = scenario_io.serialize_scenario(scenario)
        again = scenario_io.parse_scenario_text(text)
        latency = time.perf_counter() - start
        return Result(latency, value={"scenario": scenario, "report": report,
                                      "ev": ev, "eq": eq, "again": again})

    @staticmethod
    def corrupt(op: Op, res: Result, kind: str) -> None:
        """A wrong verdict ("exit") or a wrong ESDP, for the self-test."""
        report = res.value["report"]
        res.value["report"] = dataclasses.replace(report, secure=(
            not report.secure) if kind == "exit" else report.secure,
            esdp=report.esdp if kind == "exit" else 1.5 * report.esdp + 1.0)

    def check(self, op: Op, res: Result):
        d, v = op.data, res.value
        spec, scenario, report = d["spec"], v["scenario"], v["report"]
        if not matches(scenario, spec):
            return "parsed scenario differs from the generated one"
        if v["again"] != scenario:
            return "parse(serialize(s)) != s"
        outcome = compare_thresholds(
            spec, d["want"], report.required_delays, report.esdp,
            report.binding_condition, ref.EXACT_RTOL, d["delay"],
            None if report.secure is None else (0 if report.secure else 3))
        if outcome is not None:
            return outcome
        speedup, cost, _ = ref.env_of(spec)
        ev_want = ref.reward_mean(spec["reward"], d["eq_delay"])
        if not close(v["ev"], ev_want, ref.EXACT_RTOL):
            return f"E[V] {v['ev']} != {ev_want}"
        eq = v["eq"]
        return ref.check_equilibrium(
            spec.get("players", 1), ev_want, cost, d["eq_delay"], speedup,
            eq.regime, eq.attack_probability, eq.expected_attackers)


_REWARD_ATTRS = {"constant": {"value": "value"},
                 "exponential": {"mean": "mean_value"},
                 "lognormal": {"mean": "mean_value",
                               "variance": "variance_value"},
                 "empirical": {"samples": "samples"},
                 "bounded": {"max": "max_value"},
                 "markov_ou": {k: k for k in ("initial", "long_run_mean",
                                              "reversion_rate",
                                              "volatility")}}


def matches(scenario, spec) -> bool:
    env = spec["env"]
    if (scenario.env.speedup, scenario.env.cost_rate,
            scenario.env.honest_delay, scenario.env.seed_time) != \
            (env["speedup"], env["cost_rate"], env["honest_delay"],
             env.get("seed_time", 0.0)):
        return False
    reward = spec["reward"]
    if scenario.reward.kind != reward["kind"]:
        return False
    for key, attr in _REWARD_ATTRS[reward["kind"]].items():
        if getattr(scenario.reward, attr) != reward[key]:
            return False
    defaults = {"grinding_size": 1, "abort_probability": 0.0,
                "protocol_means": (), "coalition_size": 1, "players": 1,
                "rounds": 1, "grinding_cost_exponent": 1.0}
    return all(getattr(scenario, key) == spec.get(key, default)
               for key, default in defaults.items())


class DpCrossval(InProcess):
    """solve -> audit -> boundary -> verdict -> rollout -> boundary CSV,
    over grid shapes in a fixed order, with seeded economics."""

    # (reward kind, time step s, reward points); 600 s delay, speedup 3.
    # Constant rewards take a step whose work (speedup * dt) divides the
    # delay, where the grid holds the closed form exactly.
    SHAPES = (("markov_ou", 2.0, 1001), ("constant", 2.0, 1001),
              ("markov_ou", 3.0, 601))
    TINY_SHAPES = (("markov_ou", 20.0, 41), ("constant", 20.0, 41),
                   ("markov_ou", 25.0, 31))

    def ops(self):
        rng = np.random.default_rng(self.seed)
        shapes = self.TINY_SHAPES if self.tiny else self.SHAPES
        i = 0
        while True:
            kind, dt, vpoints = shapes[i % len(shapes)]
            spec = {"env": {"speedup": 3.0,
                            "cost_rate": float(rng.uniform(0.03, 0.08)),
                            "honest_delay": 600.0}}
            vmax = None  # the package default, 10x the constant reward
            if kind == "constant":
                spec["reward"] = {"kind": kind,
                                  "value": float(rng.uniform(2.0, 30.0))}
            else:
                reward = spec["reward"] = {
                    "kind": kind, "initial": float(rng.uniform(5.0, 15.0)),
                    "long_run_mean": float(rng.uniform(5.0, 15.0)),
                    "reversion_rate": float(rng.uniform(0.05, 0.2)),
                    "volatility": float(rng.uniform(1.0, 3.0))}
                # 8 stationary deviations clamp no visible mass and keep the
                # grid's own error below the rollout's confidence interval
                vmax = max(reward["initial"], reward["long_run_mean"]) + 8.0 \
                    * reward["volatility"] / math.sqrt(
                        2.0 * reward["reversion_rate"])
            yield Op(i, kind, None, {
                "spec": spec, "text": ref.scenario_text(spec, rng), "dt": dt,
                "vpoints": vpoints, "vmax": vmax,
                "rollout_seed": int(rng.integers(2 ** 31)),
                "trials": 100_000 if not self.tiny else 2_000,
                "csv": self.work / f"boundary{i % 2}.csv"})
            i += 1

    def run(self, op: Op, in_process: bool = True) -> Result:
        from esdp import montecarlo, scenario_io, stopping
        d = op.data
        scenario = scenario_io.parse_scenario_text(d["text"])
        grid = stopping.GridSpec(time_step=d["dt"], reward_points=d["vpoints"],
                                 reward_max=d["vmax"], quadrature_nodes=15)
        cfg = montecarlo.SimConfig(trials=d["trials"], seed=d["rollout_seed"],
                                   confidence=CONFIDENCE)
        start = time.perf_counter()
        vg, pg = stopping.solve(scenario, grid)
        audit = stopping.check_threshold_structure(pg)
        boundary = stopping.extract_decision_boundary(pg)
        verdict = stopping.initial_security_verdict(vg)
        estimate = montecarlo.rollout_policy(pg, scenario, cfg)
        stopping.write_boundary_csv(boundary, pg.s_values, pg.t_values,
                                    d["csv"])
        latency = time.perf_counter() - start
        return Result(latency, value={"vg": vg, "audit": audit,
                                      "boundary": boundary,
                                      "verdict": verdict,
                                      "estimate": estimate})

    @staticmethod
    def corrupt(op: Op, res: Result, kind: str) -> None:
        """A wrong value grid, for the self-test."""
        res.value["vg"].values[0] += 1e3

    def check(self, op: Op, res: Result):
        d, v = op.data, res.value
        vg, spec = v["vg"], d["spec"]
        speedup, cost, delay = ref.env_of(spec)
        n_s, n_v, n_t = vg.values.shape
        if v["audit"].violation_count != 0:
            return (f"{v['audit'].violation_count} monotonicity "
                    "violations")
        if v["boundary"].shape != (n_s, n_t) \
                or count_lines(d["csv"]) != n_s * n_t + 1:
            return "boundary shape or boundary CSV row count"
        if not close(v["verdict"].tolerance, cost * d["dt"], 1e-12):
            return f"verdict tolerance {v['verdict'].tolerance}"
        if op.kind == "constant":
            return analytic_collapse(vg, speedup, cost, delay, d["dt"])
        j0 = float(np.interp(spec["reward"]["initial"], vg.v_values,
                             vg.values[0, :, 0]))
        low, high = v["estimate"].confidence_interval
        if not low <= j0 <= high:
            return (f"J0 {j0:.6g} outside rollout CI [{low:.6g}, "
                    f"{high:.6g}]")
        return None


def analytic_collapse(vg, speedup, cost, delay, dt):
    """Constant rewards: J(s, v, t) = max(0, v - cost*s/speedup) where the
    remaining work fits before the reveal, else 0; within one step's cost
    plus one reward cell. Checked one time slab at a time."""
    s = vg.s_values[:, None, None]
    v = vg.v_values[None, :, None]
    tolerance = cost * dt + (vg.v_values[1] - vg.v_values[0])
    worst = 0.0
    for k in range(0, vg.t_values.size, 32):
        t = vg.t_values[None, None, k:k + 32]
        feasible = s / speedup < delay - t
        analytic = np.where(feasible, np.maximum(0.0, v - cost * s / speedup),
                            0.0)
        worst = max(worst, float(np.abs(vg.values[:, :, k:k + 32]
                                        - analytic).max()))
    if worst > tolerance:
        return f"constant-reward DP off the closed form by {worst:.3g}"
    return None


WORKLOADS = {"closed-form-batch": ClosedFormBatch, "dp-crossval": DpCrossval,
             "export": Export}
