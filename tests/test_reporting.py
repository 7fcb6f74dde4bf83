"""Tests for ASCII charts and tables."""

import pytest

from repro.reporting import ascii_chart, format_table, sparkline


class TestAsciiChart:
    def test_contains_title_and_legend(self):
        chart = ascii_chart({"a": [1.0, 2.0], "b": [2.0, 1.0]}, title="T")
        assert chart.startswith("T")
        assert "o=a" in chart and "x=b" in chart

    def test_axis_labels_show_range(self):
        chart = ascii_chart({"a": [0.0, 10.0]})
        assert "10" in chart
        assert "0" in chart

    def test_handles_none_values(self):
        chart = ascii_chart({"a": [1.0, None, 3.0]})
        assert "rounds 0..2" in chart

    def test_flat_series_no_division_by_zero(self):
        chart = ascii_chart({"a": [5.0, 5.0, 5.0]})
        assert "o" in chart

    def test_single_point(self):
        chart = ascii_chart({"a": [1.0]})
        assert "o" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart({})
        with pytest.raises(ValueError):
            ascii_chart({"a": []})

    def test_y_label_shown(self):
        chart = ascii_chart({"a": [1.0, 2.0]}, y_label="loss")
        assert "(loss)" in chart


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_downsampled_to_width(self):
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([1, 2, 3, 4, 5])
        assert line == "".join(sorted(line))

    def test_empty(self):
        assert sparkline([]) == ""

    def test_none_filtered(self):
        assert len(sparkline([1.0, None, 2.0])) == 2

    def test_flat(self):
        line = sparkline([3.0, 3.0])
        assert len(line) == 2


class TestFormatTable:
    def test_columns_aligned(self):
        rows = [{"name": "a", "value": 1.0}, {"name": "longer", "value": 22.5}]
        out = format_table(rows)
        lines = out.split("\n")
        assert lines[0].startswith("name")
        assert all(len(line) >= len("longer") for line in lines[1:])

    def test_title_first_line(self):
        out = format_table([{"a": 1}], title="My Table")
        assert out.split("\n")[0] == "My Table"

    def test_float_formatting(self):
        out = format_table([{"x": 0.123456789}])
        assert "0.1235" in out

    def test_none_renders_empty(self):
        out = format_table([{"x": None}])
        assert out.split("\n")[-1].strip() == ""

    def test_empty_rows(self):
        assert format_table([], title="t") == "t"
