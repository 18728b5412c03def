"""Reporting helpers: tables and speedups."""

import pytest

from repro.errors import ConfigError
from repro.experiments.reporting import (
    add_speedup_column,
    format_table,
    geometric_mean,
)

ROWS = [
    {"model": "a", "cache_ratio": 0.5, "strategy": "ktransformers", "ttft": 2.0},
    {"model": "a", "cache_ratio": 0.5, "strategy": "hybrimoe", "ttft": 1.0},
    {"model": "b", "cache_ratio": 0.5, "strategy": "ktransformers", "ttft": 3.0},
    {"model": "b", "cache_ratio": 0.5, "strategy": "hybrimoe", "ttft": 2.0},
]


class TestFormatTable:
    def test_contains_all_cells(self):
        text = format_table(ROWS, title="demo")
        assert "demo" in text
        assert "hybrimoe" in text
        assert "ktransformers" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="x")

    def test_column_subset(self):
        text = format_table(ROWS, columns=["model", "ttft"])
        assert "strategy" not in text


class TestSpeedup:
    def test_speedup_vs_baseline(self):
        annotated = add_speedup_column(ROWS, "ttft")
        by_key = {(r["model"], r["strategy"]): r for r in annotated}
        assert by_key[("a", "hybrimoe")]["speedup"] == pytest.approx(2.0)
        assert by_key[("b", "hybrimoe")]["speedup"] == pytest.approx(1.5)
        assert by_key[("a", "ktransformers")]["speedup"] == pytest.approx(1.0)

    def test_missing_baseline_leaves_rows_unannotated(self):
        rows = [dict(r) for r in ROWS if r["strategy"] != "ktransformers"]
        annotated = add_speedup_column(rows, "ttft")
        assert all("speedup" not in r for r in annotated)


class TestGeometricMean:
    def test_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            geometric_mean([])

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            geometric_mean([1.0, 0.0])

