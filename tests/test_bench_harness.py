"""Tests for the experiment-table harness."""

import io

import pytest

from repro.bench import ExperimentTable, fmt


class TestFmt:
    @pytest.mark.parametrize("value,expected", [
        (True, "yes"),
        (False, "no"),
        (3, "3"),
        ("text", "text"),
        (1.5, "1.500"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
    ])
    def test_basic(self, value, expected):
        assert fmt(value) == expected

    def test_large_and_tiny_use_scientific(self):
        assert "e" in fmt(123456.789) or "E" in fmt(123456.789)
        assert "e" in fmt(0.000012)

    def test_precision(self):
        assert fmt(1.23456, precision=2) == "1.23"


class TestExperimentTable:
    def test_positional_rows(self):
        table = ExperimentTable("t", ["a", "b"])
        table.add(1, 2.5)
        rendered = table.render()
        assert "== t ==" in rendered
        assert "2.500" in rendered

    def test_named_rows(self):
        table = ExperimentTable("t", ["a", "b"])
        table.add(a=7, b="x")
        assert table.as_dicts() == [{"a": "7", "b": "x"}]

    def test_mixed_rejected(self):
        table = ExperimentTable("t", ["a"])
        with pytest.raises(ValueError):
            table.add(1, a=2)

    def test_wrong_arity_rejected(self):
        table = ExperimentTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_alignment(self):
        table = ExperimentTable("t", ["name", "v"])
        table.add("short", 1)
        table.add("a-much-longer-name", 2)
        lines = table.render().splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_print_to_stream(self):
        table = ExperimentTable("t", ["a"])
        table.add(1)
        buf = io.StringIO()
        table.print(buf)
        assert "== t ==" in buf.getvalue()

