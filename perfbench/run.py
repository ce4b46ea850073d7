#!/usr/bin/env python3
"""Benchmark of the esdp package, run from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --seed <n> --seconds <s>   # every workload

Workloads (why each exists is in BENCHMARK.json): closed-form-batch,
dp-crossval, export. Each runs closed-loop with one client, one operation at
a time, from this single process, for --seconds, and checks every output
against closed forms computed here (perfbench/reference.py).

--trace 0 reports the end-to-end metrics, untraced: setup_s (median time
from spawning a fresh process to its having imported esdp), op_p50_s,
op_tail_s (the highest percentile with ten samples beyond it; the median
below 21 samples), ops_per_s, peak_rss_mb; error_rate is printed and
carried by `attempted`/`failed`. Every workload gives its kinds of
operation in a fixed order, so that runs of any seed have the same mix; the
seed draws their inputs. --trace 1 spends half the time untraced and half
traced, both in-process over the same operations, and reports the
per-layer metrics of perfbench/tracing.py plus the tracing overhead; spans
are written to .perfbench_out/. The last line of stdout is one JSON object:
correct, attempted, failed, metrics.

The known defects pinned in reference.DEFECTS are evaluated untimed in the
set-up processes and reported as still present or fixed; the workloads
keep out of their inputs, so no timed operation fails on them.

BLAS pools are pinned to one thread, so this process and the one child it
may be waiting on use at most two threads.
"""

from __future__ import annotations

import os

# before numpy loads, here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBES = 3

# time.monotonic() reads the same clock in every process
PROBE = """\
import time
import esdp
imported = time.monotonic()
import json, sys, warnings
from esdp.core import Lognormal
from esdp.equilibrium import conditional_inverse_expectation
warnings.simplefilter("ignore")
defects = []
for call in sys.argv[1:]:
    try:
        defects.append(eval(call))
    except Exception as exc:
        defects.append(repr(exc))
json.dump({"file": esdp.__file__, "imported": imported, "defects": defects},
          sys.stdout)
"""

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("ESDP_OUT_DIR", None)
    return env


def probe_imports(count: int, importtime: bool) -> list[dict]:
    """Fresh processes that import esdp: time from spawn until esdp is
    imported, the values of the pinned defect calls (evaluated after
    that), and with `importtime` the cumulative import time of numpy,
    scipy and esdp's own modules from `python -X importtime`."""
    from reference import DEFECTS
    out = []
    for _ in range(count):
        flags = ["-X", "importtime"] if importtime else []
        start = time.monotonic()
        proc = subprocess.run([sys.executable, *flags, "-c", PROBE,
                               *(d["call"] for d in DEFECTS)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              stdin=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise BenchError(f"cannot import esdp from {SRC}: "
                             f"{proc.stderr.strip()[-300:]}")
        doc = json.loads(proc.stdout)
        where = Path(doc["file"]).resolve()
        if SRC.resolve() not in where.parents:
            raise BenchError(f"esdp imported from {where}, not {SRC}")
        sample = {"setup_s": doc["imported"] - start,
                  "defects": doc["defects"]}
        if importtime:
            sample.update(_import_split(proc.stderr))
        out.append(sample)
    return out


def _import_split(log: str) -> dict:
    """Attribute each import to its outermost numpy/scipy ancestor, else
    to esdp. Lines are post-order; reversed they nest by indentation."""
    entries = []
    for line in log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "esdp": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        owners = [owner for _, owner in stack if owner in ("numpy", "scipy")]
        if top in ("numpy", "scipy") and not owners:
            totals[top] += cumulative
        elif top == "esdp" and not stack:
            totals["esdp"] += cumulative
        stack.append((depth, top))
    totals["esdp"] -= totals["numpy"] + totals["scipy"]
    return {f"import.{k}_s": v for k, v in totals.items()}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it. Below 21 samples no percentile above the median has
    ten beyond it, and the median is reported."""
    ordered = sorted(latencies)
    if len(ordered) < 21:
        return statistics.median(ordered), 50.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Phase:
    """One closed-loop pass over a workload's operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.child_rss = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Operations per second of operation time (the harness's own
        output checks excluded)."""
        return len(self.latencies) / sum(self.latencies)


def run_phase(workload, seconds, in_process, tracer=None, max_ops=None,
              inject=None) -> Phase:
    """Run operations until `seconds` are up."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    for op in workload.ops():
        if time.perf_counter() >= deadline or (
                max_ops is not None and phase.attempted >= max_ops):
            break
        if tracer is not None:
            tracer.op = op.index
        result = workload.run(op, in_process)
        if tracer is not None:
            tracer.op = -1
        if inject is not None and op.index == 1:
            workload.corrupt(op, result, inject)
        try:
            outcome = workload.check(op, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome = f"unreadable output: {exc!r}"
        workload.finish(op)
        phase.latencies.append(result.latency)
        if result.rss_mb is not None:
            phase.child_rss = max(phase.child_rss, result.rss_mb)
        if outcome is not None:
            phase.failures.append((op.index, outcome))
        result = None  # free the solved grids before the next operation
    if not phase.latencies:
        raise BenchError("no operation completed")
    return phase


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"nproc": len(os.sched_getaffinity(0)), "threads": threads,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def run_workload(name, seed, seconds, trace, tiny=False, max_ops=None,
                 inject=None) -> dict:
    """Run one workload and return the result object (plus a `report` of
    human-readable lines)."""
    import tracing
    from workloads import WORKLOADS

    if not (SRC / "esdp" / "__init__.py").is_file():
        raise BenchError(f"no esdp package under {SRC}")
    os.chdir(ROOT)  # operations name their files relative to the root
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cls = WORKLOADS[name]
    in_proc = cls.in_process
    probes = probe_imports(1 if tiny else PROBES, importtime=bool(trace))
    if in_proc or trace:
        import esdp
        if SRC.resolve() not in Path(esdp.__file__).resolve().parents:
            raise BenchError(f"esdp imported from {esdp.__file__}")
    lines = []
    try:
        if not trace:
            wl = cls(ROOT, work, seed, tiny, child_env())
            phase = run_phase(wl, seconds, in_proc, max_ops=max_ops,
                              inject=inject)
            value, pct = tail(phase.latencies)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 \
                if in_proc else phase.child_rss
            metrics = {
                "setup_s": statistics.median(p["setup_s"] for p in probes),
                "op_p50_s": statistics.median(phase.latencies),
                "op_tail_s": value,
                "ops_per_s": phase.ops_per_s,
                "peak_rss_mb": rss,
            }
            units = dict(END_TO_END)
            lines.append(f"op_tail_s is p{pct:.4g} of {phase.attempted} "
                         "operations")
            phases = [phase]
        else:
            half = seconds / 2.0
            shutil.rmtree(work, ignore_errors=True)
            plain = run_phase(cls(ROOT, work, seed, tiny, child_env()), half,
                              True, max_ops=max_ops, inject=inject)
            shutil.rmtree(work, ignore_errors=True)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_phase(cls(ROOT, work, seed, tiny, child_env()),
                                   half, True, tracer=tracer,
                                   max_ops=max_ops, inject=inject)
            finally:
                tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
            metrics = {key: statistics.median(p[key] for p in probes)
                       for key in ("import.numpy_s", "import.scipy_s",
                                   "import.esdp_s")}
            metrics.update(tracing.layer_values(tracer))
            pairs = list(zip(plain.latencies, traced.latencies))
            overhead = statistics.median(t - p for p, t in pairs)
            metrics["trace.overhead_s"] = overhead
            metrics["trace.overhead_pct"] = 100.0 * overhead / \
                statistics.median(p for p, _ in pairs)
            units = {m[0]: m[1] for m in tracing.LAYER_METRICS}
            lines.append(f"tracing overhead over {len(pairs)} operations "
                         "run both untraced and traced, in-process")
            lines += span_table(tracer)
            phases = [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    lines.insert(0, "environment: " + json.dumps(environment(),
                                                 sort_keys=True))
    lines.append(f"error_rate = {len(failures) / attempted:.6g} "
                 f"({len(failures)} of {attempted} operations failed)")
    for index, reason in failures[:8]:
        lines.append(f"  op {index} FAILED: {reason}")
    lines += defect_report(probes[0]["defects"])
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "report": lines, "error_rate": len(failures) / attempted}


def defect_report(values) -> list[str]:
    from reference import DEFECTS, QUAD_RTOL
    out = []
    for defect, got in zip(DEFECTS, values):
        if isinstance(got, str):
            state = f"not evaluated ({got})"
        elif math.isclose(got, defect["want"], rel_tol=QUAD_RTOL):
            state = "fixed"
        else:
            state = "still present"
        out.append(f"known defect {state}: {defect['call']} = {got!r}, "
                   f"closed form {defect['want']:.6g} ({defect['name']}; "
                   "untimed)")
    return out


def span_table(tracer) -> list[str]:
    per_op = tracer.per_op()
    names = sorted({s[0] for s in tracer.spans})
    out = [f"{'span':<26} {'calls/op':>9} {'incl s/op':>11} {'self s/op':>11}"]
    for name in names:
        ops = [a for a in per_op.values() if name in a["calls"]]
        out.append(
            f"{name:<26} {statistics.mean(a['calls'][name] for a in ops):9.3g}"
            f" {statistics.mean(a['incl'].get(name, 0.0) for a in ops):11.4g}"
            f" {statistics.mean(a['self'][name] for a in ops):11.4g}")
    return out


def print_result(name, result) -> None:
    import tracing
    print(f"== {name}")
    for line in result["report"]:
        print(line)
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}  "
              f"{tracing.moves(key)}".rstrip())


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
            print_result(name, results[name])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) > 1:
        for name, result in results.items():
            print(f"{name}: error_rate = {result['error_rate']:.6g}")
        metrics = {f"{n}.{k}": m for n, r in results.items()
                   for k, m in r["metrics"].items()}
    else:
        metrics = results[names[0]]["metrics"]
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
