"""Spans at esdp's layer boundaries, recorded from outside the package.

`Tracer.install()` replaces each traced function on every esdp module
attribute that refers to it, which is the name its callers look up (the
CLI calls `esdp.cli.solve`, thresholds calls `esdp.thresholds.esdp`, the
exponential model calls `esdp.core.harmonic_number`), and wraps
`expected_max` on each reward class. `uninstall()` puts the originals
back. Spans are held in memory as (name, op, parent, start, end, attrs)
and written out once, at the end of the run.

LAYER_METRICS is the per-layer half of BENCHMARK.json, with the
end-to-end metric each layer metric should move and the workload where
it should move it.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# (span name, defining module, function); expected_max is handled per class
_TRACED = (
    ("cli.main", "esdp.cli", "main"),
    ("scenario_io.parse", "esdp.scenario_io", "parse_scenario_file"),
    ("scenario_io.parse", "esdp.scenario_io", "parse_scenario_text"),
    ("scenario_io.serialize", "esdp.scenario_io", "serialize_scenario"),
    ("core.harmonic_number", "esdp.core", "harmonic_number"),
    ("thresholds.esdp", "esdp.thresholds", "esdp"),
    ("equilibrium.solve", "esdp.equilibrium",
     "equilibrium_attack_probability"),
    ("equilibrium.gap_eval", "esdp.equilibrium",
     "conditional_inverse_expectation"),
    ("stopping.solve", "esdp.stopping", "solve"),
    ("stopping.audit", "esdp.stopping", "check_threshold_structure"),
    ("stopping.boundary", "esdp.stopping", "extract_decision_boundary"),
    ("stopping.verdict", "esdp.stopping", "initial_security_verdict"),
    ("stopping.write_grid", "esdp.stopping", "write_grid_csv"),
    ("montecarlo.rollout", "esdp.montecarlo", "rollout_policy"),
    ("montecarlo.write_trials", "esdp.montecarlo", "write_trials_csv"),
    ("montecarlo.commit", "esdp.montecarlo", "commit_profit_samples"),
    ("casestudies.case_study", "esdp.casestudies", "case_study"),
    ("svg.render", "esdp.svg", "render_line_chart"),
)
_REWARD_CLASSES = ("Constant", "Exponential", "Lognormal", "Empirical",
                   "Bounded", "MarkovOU")


def _solve_attrs(args, kwargs, result):
    values, policy = result[0].values, result[1].compute
    return {"cells": values.size, "grid_bytes": values.nbytes + policy.nbytes}


# span name -> attrs(args, kwargs, result) recorded when the call returns
_ATTRS = {
    "stopping.solve": _solve_attrs,
    "stopping.audit": lambda a, k, r: {"violations": r.violation_count},
    "stopping.write_grid": lambda a, k, r: {
        "bytes_grid": os.path.getsize(a[2])},
    "montecarlo.write_trials": lambda a, k, r: {
        "bytes_trials": os.path.getsize(a[0])},
    "montecarlo.rollout": lambda a, k, r: {"trials": a[2].trials},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, stack[-1] if stack else -1,
                    time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import esdp.cli  # noqa: F401  loads every traced module
        modules = [m for n, m in sys.modules.items()
                   if n == "esdp" or n.startswith("esdp.")]
        for name, module, attr in _TRACED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._restore.append((m, attr, original))
                    setattr(m, attr, wrapper)
        core = sys.modules["esdp.core"]
        for cls_name in _REWARD_CLASSES:
            cls = getattr(core, cls_name)
            self._restore.append((cls, "expected_max",
                                  cls.__dict__.get("expected_max")))
            setattr(cls, "expected_max",
                    self._wrap("core.expected_max", cls.expected_max))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def per_op(self) -> dict[int, dict]:
        """Per operation: inclusive time per span name (outermost spans of
        that name only), self time, call count and summed attributes."""
        children = [0.0] * len(self.spans)
        for name, op, parent, start, end, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[int, dict] = {}
        for i, (name, op, parent, start, end, attrs) in enumerate(self.spans):
            agg = out.setdefault(op, {"incl": {}, "self": {}, "calls": {},
                                      "attrs": {}})
            agg["calls"][name] = agg["calls"].get(name, 0) + 1
            agg["self"][name] = agg["self"].get(name, 0.0) \
                + (end - start) - children[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][2]
            if ancestor < 0:
                agg["incl"][name] = agg["incl"].get(name, 0.0) + end - start
            for key, value in (attrs or {}).items():
                agg["attrs"][key] = agg["attrs"].get(key, 0) + value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "op", "parent", "start_s", "end_s",
                                  "attrs"], "spans": self.spans}, handle)


def _incl(name):
    return lambda agg: agg["incl"].get(name)


def _self(name):
    return lambda agg: agg["self"].get(name)


def _calls(name):
    return lambda agg: agg["calls"].get(name)


def _per(attr, span):
    def rate(agg):
        t = agg["incl"].get(span)
        return agg["attrs"][attr] / t if t else None
    return rate


def _attr(attr, scale=1.0):
    return lambda agg: agg["attrs"][attr] * scale if attr in agg["attrs"] \
        else None


def _gap_evals(agg):
    solves = agg["calls"].get("equilibrium.solve")
    return agg["calls"].get("equilibrium.gap_eval", 0) / solves if solves \
        else None


_CF = ("closed-form-batch",)
_DP = ("dp-crossval",)
_EX = ("export",)

# name, unit, value per operation (None when the op never reached the
# layer), end-to-end metrics it should move, workloads where it should.
# Import metrics come from fresh-process probes, trace.* from comparing a
# traced phase with an untraced one.
LAYER_METRICS = (
    ("import.numpy_s", "s", None, ("setup_s", "op_p50_s"), _EX),
    ("import.scipy_s", "s", None, ("setup_s", "op_p50_s"), _EX),
    ("import.esdp_s", "s", None, ("setup_s", "op_p50_s"), _EX),
    ("cli.self_s", "s", _self("cli.main"), ("op_p50_s",), _EX),
    ("scenario_io.parse_s", "s", _incl("scenario_io.parse"), ("op_p50_s",),
     _EX),
    ("scenario_io.serialize_s", "s", _incl("scenario_io.serialize"),
     ("op_p50_s",), _EX),
    ("core.expected_max_s", "s", _incl("core.expected_max"),
     ("op_tail_s", "ops_per_s"), _CF),
    ("core.expected_max_calls", "count", _calls("core.expected_max"),
     ("op_tail_s", "ops_per_s"), _CF),
    ("core.harmonic_number_s", "s", _incl("core.harmonic_number"),
     ("op_tail_s", "ops_per_s"), _CF),
    ("thresholds.esdp_self_s", "s", _self("thresholds.esdp"),
     ("op_tail_s", "ops_per_s"), _CF),
    ("thresholds.esdp_calls", "count", _calls("thresholds.esdp"),
     ("op_tail_s", "ops_per_s"), _CF),
    ("equilibrium.solve_s", "s", _incl("equilibrium.solve"),
     ("op_tail_s", "ops_per_s"), _CF),
    ("equilibrium.gap_evals", "count", _gap_evals,
     ("op_tail_s", "ops_per_s"), _CF),
    ("stopping.solve_s", "s", _incl("stopping.solve"),
     ("op_p50_s", "peak_rss_mb"), _DP),
    ("stopping.cells", "count", _attr("cells"), ("op_p50_s", "peak_rss_mb"),
     _DP),
    ("stopping.cells_per_s", "1/s", _per("cells", "stopping.solve"),
     ("op_p50_s", "peak_rss_mb"), _DP),
    ("stopping.grid_bytes", "B-computed", _attr("grid_bytes"),
     ("op_p50_s", "peak_rss_mb"), _DP),
    ("stopping.audit_s", "s", _incl("stopping.audit"), ("op_p50_s",), _DP),
    ("stopping.boundary_self_s", "s", _self("stopping.boundary"),
     ("op_p50_s",), _DP),
    ("stopping.verdict_s", "s", _incl("stopping.verdict"), ("op_p50_s",),
     _DP),
    ("stopping.monotonicity_violations", "count", None, ("op_p50_s",), _DP),
    ("montecarlo.rollout_s", "s", _incl("montecarlo.rollout"),
     ("op_p50_s",), _DP),
    ("montecarlo.rollout_trials_per_s", "1/s",
     _per("trials", "montecarlo.rollout"), ("op_p50_s",), _DP),
    ("stopping.write_grid_s", "s", _incl("stopping.write_grid"),
     ("op_tail_s", "ops_per_s"), _EX),
    ("stopping.write_grid_mb", "MB", _attr("bytes_grid", 1e-6),
     ("op_tail_s", "ops_per_s"), _EX),
    ("montecarlo.write_trials_s", "s", _incl("montecarlo.write_trials"),
     ("op_tail_s", "ops_per_s"), _EX),
    ("montecarlo.write_trials_mb", "MB", _attr("bytes_trials", 1e-6),
     ("op_tail_s", "ops_per_s"), _EX),
    ("montecarlo.commit_s", "s", _incl("montecarlo.commit"),
     ("op_tail_s", "ops_per_s"), _EX),
    ("casestudies.case_study_s", "s", _incl("casestudies.case_study"),
     ("op_p50_s",), _EX),
    ("svg.render_s", "s", _incl("svg.render"), ("op_p50_s",), _EX),
    ("trace.overhead_s", "s", None, (), ()),
    ("trace.overhead_pct", "%", None, (), ()),
)


def moves(name: str) -> str:
    """Which end-to-end metric a layer metric should move, and where."""
    for metric, _, _, e2e, workloads in LAYER_METRICS:
        if metric == name and e2e:
            return f"moves {', '.join(e2e)} on {', '.join(workloads)}"
    return ""


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Median over the operations that reached each layer (0 when none
    did); monotonicity violations are summed over the run."""
    per_op = list(tracer.per_op().values())
    out = {}
    for name, _, value_of, _, _ in LAYER_METRICS:
        if value_of is None:
            continue
        values = [v for v in map(value_of, per_op) if v is not None]
        out[name] = statistics.median(values) if values else 0.0
    out["stopping.monotonicity_violations"] = sum(
        agg["attrs"].get("violations", 0) for agg in per_op)
    return out
