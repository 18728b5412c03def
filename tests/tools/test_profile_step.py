"""Smoke test for the step profiler's structured report.

``tools/profile_step.py`` is a debugging entry point, not library
code, so one fast end-to-end pass is enough: profile a handful of
decode steps and pin the report shape the CI docs job (and any
tooling) consumes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

from profile_step import BLAS_THREAD_VARS, profile_report  # noqa: E402


def test_report_shape_and_sanity():
    report = profile_report(steps=5, num_layers=2, cache_ratio=0.5, top=5)
    assert report["stage"] == "decode"
    assert set(report["blas_threads"]) == set(BLAS_THREAD_VARS)
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
    assert any("hybrid_scheduler.py" in f and "(_search)" in f for f in functions)
    # One prompt through two layers: two plans, no decode steps.
    plans = [
        row for row in report["top"]
        if "hybrid_scheduler.py" in row["function"] and "(plan)" in row["function"]
    ]
    assert [row["ncalls"] for row in plans] == [2]


def test_unknown_stage_is_rejected():
    with pytest.raises(ValueError, match="stage must be one of"):
        profile_report(steps=1, num_layers=2, stage="train")


def test_engine_flag_is_gone():
    """There is one engine core; ``--engine`` is argparse's usage error."""
    from profile_step import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--engine", "reference"])
    assert excinfo.value.code == 2


#: Imports the profiler in a fresh interpreter and reports the BLAS
#: thread variables as they stood when numpy was first imported.
_IMPORT_SPY = """
import builtins, json, os, sys
names = json.loads(sys.argv[2])
seen = []
real_import = builtins.__import__
def spy(name, *args, **kwargs):
    if name.split(".")[0] == "numpy" and not seen:
        seen.append({var: os.environ.get(var) for var in names})
    return real_import(name, *args, **kwargs)
assert "numpy" not in sys.modules
builtins.__import__ = spy
sys.path.insert(0, sys.argv[1])
import profile_step
print(json.dumps(seen[0]))
"""


def _blas_env_at_numpy_import(preset: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_SPY, str(TOOLS), json.dumps(BLAS_THREAD_VARS)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_blas_is_pinned_to_one_thread_before_numpy_loads():
    """The ledger measures one BLAS thread; so must the profiler, or it
    points at ``expert_forward`` where the ledger's time is elsewhere."""
    assert _blas_env_at_numpy_import({}) == dict.fromkeys(BLAS_THREAD_VARS, "1")


def test_a_caller_set_thread_count_is_kept():
    seen = _blas_env_at_numpy_import({"OPENBLAS_NUM_THREADS": "2"})
    assert seen["OPENBLAS_NUM_THREADS"] == "2"
    assert seen["OMP_NUM_THREADS"] == seen["MKL_NUM_THREADS"] == "1"


def test_report_header_prints_the_thread_setting(capsys):
    from profile_step import main

    assert main(["--steps", "2", "--num-layers", "2", "--top", "1"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert header.startswith("BLAS threads: ")
    for var in BLAS_THREAD_VARS:
        assert f"{var}={os.environ[var]}" in header
