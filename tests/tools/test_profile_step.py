"""Smoke test for the step profiler's structured report.

``tools/profile_step.py`` is a debugging entry point, not library
code, so one fast end-to-end pass is enough: profile a handful of
decode steps and pin the report shape the CI docs job (and any
tooling) consumes.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from profile_step import profile_report  # noqa: E402


def test_report_shape_and_sanity():
    report = profile_report(steps=5, num_layers=2, cache_ratio=0.5, top=5)
    assert report["stage"] == "decode"
    assert report["steps"] == 5
    assert report["model"] == "deepseek"
    assert report["strategy"] == "hybrimoe"
    assert report["elapsed_s"] > 0.0
    assert report["steps_per_s"] > 0.0
    assert 0 < len(report["top"]) <= 5
    for row in report["top"]:
        assert set(row) == {"function", "ncalls", "tottime_s", "cumtime_s"}
        assert row["ncalls"] >= 1
        assert row["tottime_s"] >= 0.0
        assert row["cumtime_s"] >= 0.0


def test_top_rows_follow_sort_order():
    report = profile_report(steps=2, num_layers=2, cache_ratio=0.5, top=10)
    cumtimes = [row["cumtime_s"] for row in report["top"]]
    assert cumtimes == sorted(cumtimes, reverse=True)


def test_prefill_stage_profiles_the_wide_planner_search():
    """``stage="prefill"`` runs cold full-prompt prefills: every expert
    is activated, so the planner's search shows up in the report."""
    report = profile_report(
        steps=1, num_layers=2, cache_ratio=0.5, top=400, stage="prefill",
        prompt_len=64,
    )
    assert report["stage"] == "prefill"
    assert report["steps"] == 1
    functions = [row["function"] for row in report["top"]]
    assert any("hybrid_scheduler.py" in f and "(_search_fast)" in f for f in functions)
    # One prompt through two layers: two plans, no decode steps.
    plans = [
        row for row in report["top"]
        if "hybrid_scheduler.py" in row["function"] and "(plan)" in row["function"]
    ]
    assert [row["ncalls"] for row in plans] == [2]


def test_unknown_stage_is_rejected():
    import pytest

    with pytest.raises(ValueError, match="stage must be one of"):
        profile_report(steps=1, num_layers=2, stage="train")


def test_engine_flag_is_gone():
    """There is one engine core; ``--engine`` is argparse's usage error."""
    import pytest
    from profile_step import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--engine", "reference"])
    assert excinfo.value.code == 2
