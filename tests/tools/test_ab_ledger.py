"""The pair summariser and driver of ``tools/ab_ledger.py``, on canned
contract lines."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import ab_ledger  # noqa: E402
from ab_ledger import (  # noqa: E402
    contract_metrics,
    format_table,
    spread,
    summarise,
    workload_list,
)

BETTER = {"host_peak_rss_mb": "lower", "host_tokens_per_s": "higher", "sim_latency_ms": "lower"}


def contract(rss, tok, latency=78.1, correct=True):
    """A ``bench/run.py`` report tail: a report line, then the contract line."""
    metrics = {
        "host_peak_rss_mb": {"value": rss, "unit": "MB"},
        "host_tokens_per_s": {"value": tok, "unit": "tok/s"},
        "sim_latency_ms": {"value": latency, "unit": "ms"},
    }
    line = {"correct": correct, "attempted": 24, "failed": 0, "metrics": metrics}
    return "workload prefill_long  seed 3\n" + json.dumps(line) + "\n"


def pairs_of(parent, change):
    return [(contract_metrics(p), contract_metrics(c)) for p, c in zip(parent, change)]


def test_contract_metrics_reads_the_last_line():
    assert contract_metrics(contract(87.4, 7000.0)) == {
        "host_peak_rss_mb": 87.4, "host_tokens_per_s": 7000.0, "sim_latency_ms": 78.1,
    }


def test_a_failed_run_is_refused():
    with pytest.raises(ValueError, match="failed its checks"):
        contract_metrics(contract(87.4, 7000.0, correct=False))


def test_spread_is_median_and_quartiles():
    assert spread([3.0]) == (3.0, 3.0, 3.0)
    median, q1, q3 = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)


def test_a_clear_gain_in_every_pair_is_better():
    parent = [contract(87.2 + 0.05 * i, 7000.0 + 10 * i) for i in range(10)]
    change = [contract(64.8 + 0.05 * i, 7000.0 + 10 * (9 - i)) for i in range(10)]
    rows = {row["metric"]: row for row in summarise(pairs_of(parent, change), BETTER)["rows"]}
    rss = rows["host_peak_rss_mb"]
    assert rss["wins"] == 10 and rss["pairs"] == 10
    assert rss["verdict"] == "better"
    assert rss["ratio"] == pytest.approx(rss["change"][0] / rss["parent"][0])
    assert rss["ratio"] < 0.76
    # Same medians, wins split by the pairing: no verdict.
    tok = rows["host_tokens_per_s"]
    assert tok["ratio"] == pytest.approx(1.0)
    assert tok["wins"] == 5 and tok["verdict"] == "unresolved"
    # Equal in every run: neither won nor lost.
    assert rows["sim_latency_ms"]["wins"] == 0
    assert rows["sim_latency_ms"]["verdict"] == "unresolved"


def test_a_clear_loss_is_worse_and_a_narrow_one_unresolved():
    parent = [contract(80.0, 7000.0 + 100 * i) for i in range(10)]
    worse = [contract(80.0, 6000.0 + 100 * i) for i in range(10)]
    rows = {r["metric"]: r for r in summarise(pairs_of(parent, worse), BETTER)["rows"]}
    assert rows["host_tokens_per_s"]["wins"] == 0
    assert rows["host_tokens_per_s"]["verdict"] == "worse"
    # Lost every pair, but by less than the parent's quartile spread.
    narrow = [contract(80.0, 6990.0 + 100 * i) for i in range(10)]
    rows = {r["metric"]: r for r in summarise(pairs_of(parent, narrow), BETTER)["rows"]}
    assert rows["host_tokens_per_s"]["verdict"] == "unresolved"


def test_a_moving_sim_metric_is_named():
    parent = [contract(80.0, 7000.0) for _ in range(3)]
    change = [contract(80.0, 7000.0), contract(80.0, 7000.0, latency=78.2), contract(80.0, 7000.0)]
    summary = summarise(pairs_of(parent, change), BETTER)
    assert summary["sim_differs"] == ["sim_latency_ms"]
    assert format_table(summary).splitlines()[-1] == "sim_* DIFFER: sim_latency_ms"
    steady = summarise(pairs_of(parent, parent), BETTER)
    assert steady["sim_differs"] == []
    assert format_table(steady).splitlines()[-1] == "sim_* identical in every run"


def test_table_has_one_row_per_metric():
    parent = [contract(87.0, 7000.0), contract(88.0, 7100.0)]
    change = [contract(65.0, 7050.0), contract(66.0, 7000.0)]
    lines = format_table(summarise(pairs_of(parent, change), BETTER)).splitlines()
    assert len(lines) == 1 + len(BETTER) + 1
    assert lines[1].startswith("host_peak_rss_mb") and lines[1].endswith("2/2   better")


def test_workload_list_splits_on_commas():
    assert workload_list("prefill_long") == ["prefill_long"]
    assert workload_list("decode_hot, serve_poisson") == ["decode_hot", "serve_poisson"]
    with pytest.raises(argparse.ArgumentTypeError, match="empty workload"):
        workload_list("decode_hot,,serve_poisson")


def test_main_prints_one_table_and_sim_verdict_per_workload(monkeypatch, tmp_path, capsys):
    """Each workload gets its own pairs, table and ``sim_*`` line, and
    the exit status is 1 when any one workload's ``sim_*`` moved."""
    spec = json.loads((ab_ledger.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []

    def fake_run_side(tree, env, workload, seed, seconds):
        runs.append((tree == ab_ledger.REPO_ROOT, workload))
        metrics = dict.fromkeys((metric["name"] for metric in spec["end_to_end"]), 1.0)
        if workload == "serve_poisson" and tree == ab_ledger.REPO_ROOT:
            metrics["sim_tokens_per_s"] += len(runs)
        return metrics

    monkeypatch.setattr(ab_ledger, "export_tree", lambda ref, into: tmp_path)
    monkeypatch.setattr(ab_ledger, "side_env", lambda tree, prefix: {})
    monkeypatch.setattr(ab_ledger, "run_side", fake_run_side)
    status = ab_ledger.main(
        ["--parent", "HEAD", "--workload", "decode_hot,serve_poisson", "--pairs", "2"]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert [workload for _, workload in runs] == ["decode_hot"] * 4 + ["serve_poisson"] * 4
    # Pairs alternate which side runs first.
    assert [change for change, _ in runs[:4]] == [False, True, True, False]
    headers = [line for line in out.splitlines() if " seed 0, 2 pairs of 20 s" in line]
    assert [line.split()[0] for line in headers] == ["decode_hot", "serve_poisson"]
    verdicts = [line for line in out.splitlines() if line.startswith("sim_*")]
    assert verdicts == ["sim_* identical in every run", "sim_* DIFFER: sim_tokens_per_s"]
    assert ab_ledger.main(["--parent", "HEAD", "--workload", "decode_hot", "--pairs", "2"]) == 0


def test_each_side_runs_on_its_own_compiled_bytecode(monkeypatch, tmp_path):
    """``src/`` and ``bench/`` are compiled into one prefix per side
    before the first pair, and every bench run of a side reads that
    side's prefix: the parent export never compiles in a measured run."""
    spec = json.loads((ab_ledger.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {metric["name"]: {"value": 1.0} for metric in spec["end_to_end"]}
    line = json.dumps({"correct": True, "metrics": metrics})
    calls = []

    def fake_run(command, cwd, env, **kwargs):
        calls.append((command, Path(cwd), env["PYTHONPYCACHEPREFIX"]))
        assert "PYTHONDONTWRITEBYTECODE" not in env
        return subprocess.CompletedProcess(command, 0, line, "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(ab_ledger, "export_tree", lambda ref, into: tmp_path)
    monkeypatch.setattr(ab_ledger.subprocess, "run", fake_run)
    assert ab_ledger.main(["--parent", "HEAD", "--workload", "decode_hot", "--pairs", "2"]) == 0
    compiles = [call for call in calls if "compileall" in call[0]]
    benches = [call for call in calls if "compileall" not in call[0]]
    assert calls[:2] == compiles and len(benches) == 4
    prefix = {cwd: prefix for _, cwd, prefix in compiles}
    assert set(prefix) == {tmp_path, ab_ledger.REPO_ROOT}
    assert prefix[tmp_path] != prefix[ab_ledger.REPO_ROOT]
    assert all(prefix[cwd] == used for _, cwd, used in benches)
    assert not any(Path(p).is_relative_to(ab_ledger.REPO_ROOT) for p in prefix.values())


def test_side_env_points_bytecode_at_the_side_prefix(monkeypatch, tmp_path):
    """The side's environment names its own prefix and lets bytecode be
    written there; the compile runs in the side's tree with that
    environment, and a failed compile stops the comparison."""
    calls = []

    def fake_run(command, cwd, env, **kwargs):
        calls.append((command[1:], cwd, env))
        return subprocess.CompletedProcess(command, status, "", "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(ab_ledger.subprocess, "run", fake_run)
    status = 0
    env = ab_ledger.side_env(tmp_path / "tree", tmp_path / "pyc")
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path / "pyc")
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert calls == [(["-m", "compileall", "-q", "src", "bench"], tmp_path / "tree", env)]
    status = 1
    with pytest.raises(RuntimeError, match="compileall exited 1"):
        ab_ledger.side_env(tmp_path / "tree", tmp_path / "pyc")
