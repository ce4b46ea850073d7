"""Preset numeric studies: four worked settings with pinned headline numbers.

Each study owns its numbers and chart labels; the command-line layer draws
the chart. `CASE_STUDIES` maps each id to its generator.
Baseline economics for studies 1-3: a factor-3 hardware speedup rented at
0.05 USD per second of adversarial running time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._csv import write_csv
from .thresholds import (
    expected_max_exponential,
    expected_profit,
    grinding_threshold,
    linear_threshold,
)

__all__ = [
    "CaseStudyOutput",
    "case1_profit_curves",
    "case2_delay_curve",
    "case3_grinding_curve",
    "case4_ethereum",
    "case_study",
    "CASE_STUDIES",
]

BASELINE_SPEEDUP = 3.0
BASELINE_COST_RATE = 0.05  # USD/s


@dataclass(frozen=True)
class CaseStudyOutput:
    """One study: rows sorted by the first column, labeled headline numbers,
    a unit per column, and its chart's axis labels and x scale."""

    name: str
    column_names: tuple[str, ...]
    column_units: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    headlines: tuple[tuple[str, float, str], ...]
    x_label: str
    y_label: str
    notes: tuple[str, ...] = field(default=())
    x_log2: bool = False

    def header(self) -> list[str]:
        return [f"{name}({unit})"
                for name, unit in zip(self.column_names, self.column_units)]

    def to_csv(self, path) -> None:
        import numpy as np
        table = np.array(self.rows, dtype=float).reshape(
            -1, len(self.column_names))
        write_csv(path, self.header(), table.T)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "columns": [{"name": n, "unit": u}
                        for n, u in zip(self.column_names, self.column_units)],
            "rows": [list(row) for row in self.rows],
            "headlines": [{"label": label, "value": value, "unit": unit}
                          for label, value, unit in self.headlines],
            "notes": list(self.notes),
        }


def _sorted_rows(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(sorted((tuple(float(x) for x in row) for row in rows),
                        key=lambda row: row[0]))


def case1_profit_curves(delays=None) -> CaseStudyOutput:
    """Expected attack profit against delay for reward levels 10/50/100 USD:
    profit = reward - cost_rate*T/speedup, break-even at 60*reward seconds."""
    import numpy as np
    if delays is None:
        delays = np.arange(0.0, 7201.0, 60.0)
    levels = (10.0, 50.0, 100.0)
    rows = [(t, *(expected_profit(t, BASELINE_SPEEDUP, BASELINE_COST_RATE, v)
                   for v in levels))
            for t in delays]
    headlines = tuple(
        (f"break_even_delay_reward_{v:g}USD",
         linear_threshold(BASELINE_SPEEDUP, BASELINE_COST_RATE, v), "s")
        for v in levels)
    return CaseStudyOutput(
        name="profit_vs_delay",
        column_names=("delay",) + tuple(f"profit_reward_{v:g}USD"
                                        for v in levels),
        column_units=("s",) + ("USD",) * len(levels),
        rows=_sorted_rows(rows),
        headlines=headlines,
        x_label="delay (s)", y_label="expected profit (USD)",
        notes=("economically secure region: profit <= 0; "
               "a few seconds of delay sits deep in the profitable zone "
               "once rewards reach tens of USD",))


def case2_delay_curve(reward_bounds=None) -> CaseStudyOutput:
    """Required delay for a capped-value randomness service: 60 seconds per
    USD of worst-case reward under the baseline economics."""
    import numpy as np
    if reward_bounds is None:
        reward_bounds = np.arange(0.0, 201.0, 5.0)
    rows = [(v, linear_threshold(BASELINE_SPEEDUP, BASELINE_COST_RATE, v))
            for v in reward_bounds]
    return CaseStudyOutput(
        name="required_delay_vs_reward_bound",
        column_names=("reward_bound", "required_delay"),
        column_units=("USD", "s"),
        rows=_sorted_rows(rows),
        headlines=(("required_delay_reward_bound_100USD",
                    linear_threshold(BASELINE_SPEEDUP, BASELINE_COST_RATE,
                                     100.0), "s"),),
        x_label="reward bound (USD)", y_label="required delay (s)",
        notes=("capping the value at risk is the lever that keeps delays "
               "practical",))


def case3_grinding_curve(grinding_sizes=None) -> CaseStudyOutput:
    """Required delay against grinding size G with exponential(10 USD) seed
    rewards and partially shared hardware (cost ~ sqrt(G)):
    T(G) = 600 * H_G / sqrt(G) seconds."""
    if grinding_sizes is None:
        grinding_sizes = [2 ** k for k in range(11)]
    mean = 10.0
    rows = []
    for g in grinding_sizes:
        g = int(g)
        rows.append((g, grinding_threshold(
            BASELINE_SPEEDUP, BASELINE_COST_RATE, g,
            expected_max_exponential(mean, g), cost_exponent=0.5)))
    rows = _sorted_rows(rows)
    peak = max(rows, key=lambda row: row[1])
    return CaseStudyOutput(
        name="required_delay_vs_grinding_size",
        column_names=("grinding_size", "required_delay"),
        column_units=("count", "s"),
        rows=rows,
        headlines=(
            ("required_delay_G_1", rows[0][1], "s"),
            ("required_delay_G_4",
             grinding_threshold(BASELINE_SPEEDUP, BASELINE_COST_RATE, 4,
                                expected_max_exponential(mean, 4), 0.5), "s"),
            ("peak_grinding_size", peak[0], "count"),
            ("peak_required_delay", peak[1], "s"),
        ),
        x_label="grinding size", y_label="required delay (s)", x_log2=True,
        notes=("the curve is non-monotone in G: the harmonic growth of the "
               "best-of-G reward is eventually outpaced by the sqrt(G) cost "
               "scaling, so the binding G is small rather than maximal",))


def case4_ethereum() -> CaseStudyOutput:
    """Ethereum-style validator selection: FPGA speedup 2.5x at 0.00046
    USD/s against median (50 USD) and 99th-percentile (10,000 USD) MEV."""
    speedup, cost_rate = 2.5, 0.00046
    levels = (50.0, 10_000.0)
    rows = [(v, linear_threshold(speedup, cost_rate, v)) for v in levels]
    headlines = []
    for v, t_star in rows:
        headlines.append((f"required_delay_mev_{v:g}USD", t_star, "s"))
        headlines.append((f"required_delay_mev_{v:g}USD_days",
                          t_star / 86400.0, "days"))
    return CaseStudyOutput(
        name="ethereum_randao_replacement",
        column_names=("expected_mev", "required_delay"),
        column_units=("USD", "s"),
        rows=_sorted_rows(rows),
        headlines=tuple(headlines),
        x_label="expected MEV (USD)", y_label="required delay (s)",
        notes=("cost rate 0.00046 USD/s is the rounded cloud-FPGA hourly "
               "price (1.65/3600 = 0.00045833... USD/s); the rounded figure "
               "is kept so the headline delays match the published ones",
               "multi-day delays are incompatible with a 12-second slot: a "
               "delay function alone cannot price out MEV-motivated "
               "manipulation here"))


CASE_STUDIES = {1: case1_profit_curves, 2: case2_delay_curve,
                3: case3_grinding_curve, 4: case4_ethereum}


def case_study(case_id: int) -> CaseStudyOutput:
    """Dispatch a study by numeric id (1-4)."""
    if case_id not in CASE_STUDIES:
        raise ValueError(f"unknown case study id {case_id}; "
                         f"valid ids: {sorted(CASE_STUDIES)}")
    return CASE_STUDIES[case_id]()
