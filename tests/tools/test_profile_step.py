"""Smoke test for the step profiler's structured report.

``tools/profile_step.py`` is a debugging entry point, not library
code, so one fast end-to-end pass per stage is enough: profile the
ledger's smoke-sized decode and prefill workloads and pin the report
shape the CI docs job (and any tooling) consumes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

from profile_step import (  # noqa: E402
    BLAS_THREAD_VARS,
    ledger_rows,
    memory_report,
    profile_report,
)

from benchlib.workloads import NUM_LAYERS, SMOKE  # noqa: E402  (path set by profile_step)


@pytest.fixture(scope="module")
def decode_report():
    return profile_report("decode_hot", smoke=True, top=10)


def test_report_shape_and_sanity(decode_report):
    report = decode_report
    assert set(report["blas_threads"]) == set(BLAS_THREAD_VARS)
    assert report["workload"] == "decode_hot"
    assert report["region"] == "chunks"
    # The ledger's smoke size: 2 chunks of an 8-token warm prompt + 16 steps.
    assert report["tokens"] == 2 * (8 + SMOKE.decode_steps)
    assert report["elapsed_s"] > 0.0
    assert report["tokens_per_s"] > 0.0
    assert 0 < len(report["top"]) <= 10
    for row in report["top"]:
        assert set(row) == {"function", "ncalls", "tottime_s", "cumtime_s"}
        assert row["ncalls"] >= 1
        assert row["tottime_s"] >= 0.0
        assert row["cumtime_s"] >= 0.0


def test_prefetch_yield_counts_decode_windows_only(decode_report):
    """HybriMoE opens a window at every decode layer and none in the
    8-token warm prefills; the impact-driven prefetcher issues at most
    what it decided."""
    prefill, decode = (decode_report["prefetch_yield"][s] for s in ("prefill", "decode"))
    assert prefill == dict.fromkeys(("windows", "select_calls", "decisions", "issued"), 0)
    assert decode["windows"] == 2 * SMOKE.decode_steps * NUM_LAYERS
    assert 0 < decode["select_calls"] < decode["windows"]  # the last layer predicts nothing
    assert 0 < decode["issued"] <= decode["decisions"]


def test_top_rows_follow_sort_order(decode_report):
    cumtimes = [row["cumtime_s"] for row in decode_report["top"]]
    assert cumtimes == sorted(cumtimes, reverse=True)


def test_prefill_workload_profiles_the_wide_planner_search():
    """``prefill_long`` runs cold full-prompt prefills: every expert is
    activated, so the planner's search shows up in the report — and
    set-up (engines, calibration, prompts) stays outside the profile."""
    report = profile_report("prefill_long", smoke=True, top=400)
    functions = [row["function"] for row in report["top"]]
    assert any("hybrid_scheduler.py" in f and "(_search)" in f for f in functions)
    # One plan per prompt per layer, no decode steps.
    plans = [
        row for row in report["top"]
        if "hybrid_scheduler.py" in row["function"] and "(plan)" in row["function"]
    ]
    assert [row["ncalls"] for row in plans] == [SMOKE.prompts * NUM_LAYERS]
    assert not any("(make_engine)" in f for f in functions)
    # No prefetch window opens in a HybriMoE prefill: gate_scores only routes.
    gate_calls = [row["ncalls"] for row in report["top"] if "(gate_scores)" in row["function"]]
    assert gate_calls == [SMOKE.prompts * NUM_LAYERS]
    assert report["prefetch_yield"]["prefill"]["windows"] == 0
    assert report["prefetch_yield"]["prefill"]["select_calls"] == 0


def test_setup_profiles_prepare_instead_of_the_chunks():
    """``--setup`` is the other half: engine construction in, steps out —
    and the shared weights of ``prefill_long`` are profiled at most once
    (not at all while an equal model from an earlier pass still lives)."""
    report = profile_report("prefill_long", smoke=True, top=400, setup=True)
    assert report["region"] == "setup"
    calls = {row["function"].rsplit("(", 1)[1][:-1]: row["ncalls"] for row in report["top"]}
    assert calls["make_engine"] == SMOKE.prompts
    assert calls.get("generate_trace", 0) <= 1
    assert "run_batch" not in calls


def test_ledger_rows_count_every_timeline_of_each_engine_once():
    from repro import make_engine

    engine = make_engine(num_layers=2, num_gpus=2, cpu_cache_capacity=4)
    clock = engine.runtime.clock
    assert ledger_rows([engine]) == 0
    clock.gpus[1].reserve(0.0, 1.0, "g")
    clock.pcie_links[0].reserve(0.0, 1.0, "x")
    clock.d2h_links[1].reserve(0.0, 1.0, "demote")
    clock.cpu.reserve(0.0, 1.0, "c")
    clock.disk.reserve(0.0, 1.0, "d")
    clock.cpu.reserve(0.0, 0.0, "noop")  # zero duration: no row
    assert ledger_rows([engine, engine]) == 5  # a shared engine counts once


def test_memory_report_traces_the_chunks(capsys):
    """``--memory``: peak traced MB, minor page faults, the ledger rows
    the pass added and the live allocation sites, largest first."""
    report = memory_report("decode_hot", smoke=True, top=5)
    assert report["tokens"] == 2 * (8 + SMOKE.decode_steps)
    assert report["peak_traced_mb"] > 0.0
    assert isinstance(report["minor_faults"], int) and report["minor_faults"] >= 0
    # Every decode layer adds at least its attention interval.
    assert report["ledger_rows"] >= 2 * SMOKE.decode_steps * NUM_LAYERS
    assert 0 < len(report["top"]) <= 5
    sizes = [row["size_kb"] for row in report["top"]]
    assert sizes == sorted(sizes, reverse=True)
    assert all(":" in row["site"] and row["count"] >= 1 for row in report["top"])

    from profile_step import main

    assert main(["--workload", "decode_hot", "--smoke", "--memory", "--top", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "peak traced" in out[0]
    assert out[2] == f"resource-ledger rows added: {report['ledger_rows']}"
    assert out[3].startswith(f"weight sets behind the engines: {report['weight_sets']}, ")
    assert "minor page faults: " in out[3]
    assert len(out) == 6 + 3


@pytest.mark.parametrize("workload", ["serve_poisson", "prefill_long"])
def test_memory_report_counts_the_shared_weights_once(workload):
    """``serve_poisson`` builds three serving engines by name plus a
    check engine, ``prefill_long`` its engines on a model it builds
    itself; either way all run on one weight set, which the report sizes."""
    from repro import get_preset

    report = memory_report(workload, smoke=True, top=1)
    assert report["weight_sets"] == 1
    config = get_preset("deepseek")
    experts = config.num_routed_experts + config.num_shared_experts
    # Three float32 32 x 64 matrices per expert, plus attention, gates
    # and the embedding.
    assert report["weights_mb"] > NUM_LAYERS * experts * 3 * 32 * 64 * 4 / 2**20


def test_memory_and_setup_are_exclusive():
    from profile_step import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--workload", "decode_hot", "--memory", "--setup"])
    assert excinfo.value.code == 2


def test_unknown_workload_is_a_usage_error():
    from profile_step import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--workload", "train"])
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

    assert main(["--workload", "decode_hot", "--smoke", "--top", "1"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert header.startswith("BLAS threads: ")
    for var in BLAS_THREAD_VARS:
        assert f"{var}={os.environ[var]}" in header
