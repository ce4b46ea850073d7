#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny sizes of every workload.

    python3 perfbench/selftest.py

Asserts that every metric BENCHMARK.json names comes out with its unit
(end-to-end untraced, per-layer traced), that error_rate and every pinned
known defect are reported, that no operation fails as generated and an
injected wrong output or wrong exit code raises error_rate, and that the
benchmark refuses to run, printing no result, where the package is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracing
from reference import DEFECTS
from workloads import WORKLOADS

SEED, OPS = 7, 4


def tiny(name, trace=0, inject=None):
    return run.run_workload(name, SEED, 600.0, trace, tiny=True,
                            max_ops=OPS, inject=inject)


def check_metrics(spec) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(layers) == [m[0] for m in tracing.LAYER_METRICS]
    for name in WORKLOADS:
        for trace, want in ((0, e2e), (1, layers)):
            result = tiny(name, trace)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            assert any(line.startswith("error_rate = ")
                       for line in result["report"]), name
            assert sum(line.startswith("known defect ")
                       for line in result["report"]) == len(DEFECTS), name
        print(f"selftest: {name}: metrics and units ok")


def check_injection() -> None:
    for name, cls in WORKLOADS.items():
        base = tiny(name)["error_rate"]
        assert base == 0.0, (name, base)
        kinds = ("output",) if name == "dp-crossval" else ("output", "exit")
        for kind in kinds:
            hurt = tiny(name, inject=kind)["error_rate"]
            assert hurt > base, (name, kind, base, hurt)
            print(f"selftest: {name}: injected wrong {kind} raises "
                  f"error_rate {base:.3g} -> {hurt:.3g}")


def check_refuses_without_package() -> None:
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "export",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert not any(line.startswith("{")
                   for line in proc.stdout.splitlines()), proc.stdout
    print(f"selftest: without src/esdp: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_injection()
    check_refuses_without_package()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
