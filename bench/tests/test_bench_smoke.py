"""Tier-1 smoke test of the perf ledger (``bench/run.py --smoke`` sizes).

Runs every workload traced, in-process, twice: checks the metric
catalogue, that counts and simulated values repeat exactly, and that
``BENCHMARK.json`` lists what ``run.py`` emits.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

from benchlib import layers  # noqa: E402  (run.py puts bench/ on sys.path)
from benchlib.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _smoke(name, **kwargs):
    return bench_run.run_workload(name, seed=0, seconds=0.0, trace=True, smoke=True, **kwargs)


@pytest.fixture(scope="module")
def runs():
    return [{name: _smoke(name) for name in WORKLOADS} for _ in range(2)]


def _all_metrics(report):
    return {**report["end_to_end"], **report["per_layer"]}


def test_every_metric_is_present_with_unit_and_direction(runs):
    for report in runs[0].values():
        assert list(report["end_to_end"]) == [m[0] for m in layers.END_TO_END]
        assert list(report["per_layer"]) == [m[0] for m in layers.PER_LAYER]
        for name, metric in _all_metrics(report).items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] and metric["better"] in ("higher", "lower"), name
            assert isinstance(metric["value"], (int, float)), name
        for name in report["end_to_end"]:
            assert report["end_to_end"][name]["value"] > 0, name


def test_outputs_are_correct_and_time_is_attributed(runs):
    for name, report in runs[0].items():
        assert report["correct"] and report["failed"] == 0, (name, report["checks"])
        assert all(v for k, v in report["checks"].items() if k != "layer_shares_sum")
        assert abs(report["checks"]["layer_shares_sum"] - 1.0) <= 0.02
        assert report["missing_seams"] == []
        assert report["per_layer"]["engine.run_batch.calls"]["value"] > 0
    critical = {
        name: max(
            ("gpu", "cpu", "pcie", "disk"),
            key=lambda r: report["per_layer"][f"hardware.critical.{r}_share"]["value"],
        )
        for name, report in runs[0].items()
    }
    assert critical["decode_hot"] == "gpu"
    assert critical["decode_pressured"] == "disk"
    assert critical["prefill_long"] == "pcie"


def test_counts_and_simulated_values_repeat_exactly(runs):
    first, second = runs
    for name in WORKLOADS:
        assert first[name]["sim_fingerprint"] == second[name]["sim_fingerprint"]
        a, b = _all_metrics(first[name]), _all_metrics(second[name])
        for metric in a:
            if metric.endswith(".calls") or metric.startswith("sim_"):
                assert a[metric]["value"] == b[metric]["value"], (name, metric)


def test_benchmark_json_lists_exactly_what_run_py_emits():
    spec = bench_run.benchmark_spec()
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"]: m["bound"] for m in spec["end_to_end"]}["setup_s"] == max(
        m["bound"] for m in spec["end_to_end"]
    )


def test_vanished_seam_costs_its_numbers_only(monkeypatch, tmp_path):
    gone = "repro.serving.session.ServingSession.renamed_step"
    seams = [(span, gone if span == "serving.step" else dotted) for span, dotted in layers.SEAMS]
    monkeypatch.setattr(layers, "SEAMS", seams)
    trace_file = tmp_path / "trace.json"
    report = _smoke("decode_hot", trace_out=str(trace_file))
    assert report["correct"] and report["missing_seams"] == [gone]
    assert report["per_layer"]["serving.step.calls"]["value"] is None
    assert report["per_layer"]["engine.run_batch.calls"]["value"] > 0
    line = json.loads(bench_run.contract_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert {"engine.run_batch", "models.expert_forward"} <= {e["name"] for e in events}
