import json
import math

import pytest

from esdp.casestudies import (
    case1_profit_curves,
    case2_delay_curve,
    case3_grinding_curve,
    case4_ethereum,
    case_study,
)


def headline(output, label):
    for name, value, unit in output.headlines:
        if name == label:
            return value, unit
    raise KeyError(label)


class TestCase1:
    def test_break_even_headlines_exact(self):
        out = case1_profit_curves()
        assert headline(out, "break_even_delay_reward_10USD") == (600.0, "s")
        assert headline(out, "break_even_delay_reward_50USD") == (3000.0, "s")
        assert headline(out, "break_even_delay_reward_100USD") == (6000.0, "s")

    def test_zero_delay_profit_equals_reward(self):
        out = case1_profit_curves(delays=[0.0, 600.0])
        first = out.rows[0]
        assert first == (0.0, 10.0, 50.0, 100.0)
        at_600 = out.rows[1]
        assert at_600[1] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sorted_and_finite(self):
        out = case1_profit_curves(delays=[900.0, 0.0, 300.0])
        xs = [row[0] for row in out.rows]
        assert xs == sorted(xs)
        assert all(math.isfinite(x) for row in out.rows for x in row)


class TestCase2:
    def test_headline_exact(self):
        out = case2_delay_curve()
        assert headline(out, "required_delay_reward_bound_100USD") == \
            (6000.0, "s")

    def test_sixty_seconds_per_dollar(self):
        out = case2_delay_curve(reward_bounds=[0.0, 50.0, 100.0])
        assert out.rows == ((0.0, 0.0), (50.0, 3000.0), (100.0, 6000.0))


class TestCase3:
    def test_pinned_values(self):
        out = case3_grinding_curve()
        by_g = {int(row[0]): row[1] for row in out.rows}
        assert by_g[1] == 600.0
        assert by_g[4] == pytest.approx(625.0, rel=1e-12)

    def test_curve_matches_direct_harmonic_summation(self):
        out = case3_grinding_curve()
        for g, value in ((int(r[0]), r[1]) for r in out.rows):
            harmonic = math.fsum(1.0 / i for i in range(1, g + 1))
            assert value == pytest.approx(600.0 * harmonic / math.sqrt(g),
                                          rel=1e-12)

    def test_non_monotone_shape(self):
        out = case3_grinding_curve()
        values = [row[1] for row in out.rows]
        assert values[1] > values[0]          # rises from G=1
        assert values[-1] < values[0]         # falls well below at large G
        peak_g, _ = headline(out, "peak_grinding_size")
        assert 1 < peak_g < 1024
        assert any("non-monotone" in note for note in out.notes)

    def test_extends_to_1024(self):
        out = case3_grinding_curve()
        assert out.rows[-1][0] == 1024.0


class TestCase4:
    def test_median_mev_headline(self):
        out = case4_ethereum()
        value, unit = headline(out, "required_delay_mev_50USD")
        assert unit == "s"
        assert abs(value - 271_739.0) <= 1.0
        days, _ = headline(out, "required_delay_mev_50USD_days")
        assert days == pytest.approx(3.1, abs=0.1)

    def test_extreme_mev_headline(self):
        out = case4_ethereum()
        value, _ = headline(out, "required_delay_mev_10000USD")
        assert abs(value - 54_347_826.0) <= 1.0
        days, _ = headline(out, "required_delay_mev_10000USD_days")
        assert days == pytest.approx(629.0, abs=0.5)

    def test_cost_rounding_note_present(self):
        out = case4_ethereum()
        assert any("0.00045833" in note for note in out.notes)


class TestOutputFormats:
    def test_csv_header_and_precision(self, tmp_path):
        out = case3_grinding_curve(grinding_sizes=[1, 4])
        path = tmp_path / "case3.csv"
        out.to_csv(path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "grinding_size(count),required_delay(s)"
        assert lines[1] == "1,600"
        assert "\r" not in text
        # full-precision row round-trips exactly
        g4 = float(lines[2].split(",")[1])
        assert g4 == out.rows[1][1]

    def test_json_document(self):
        payload = json.loads(json.dumps(case4_ethereum().to_json_dict()))
        assert payload["name"] == "ethereum_randao_replacement"
        assert payload["columns"][0] == {"name": "expected_mev",
                                         "unit": "USD"}
        assert len(payload["rows"]) == 2
        assert payload["notes"]


class TestDispatch:
    @pytest.mark.parametrize("case_id", [1, 2, 3, 4])
    def test_known_ids(self, case_id):
        out = case_study(case_id)
        assert out.rows

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown case study"):
            case_study(9)
