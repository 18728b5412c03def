"""The one bench driver: file layouts, baseline handling and the gate.

Fake ``Bench`` objects against ``tmp_path`` as the baseline root — no
engine is built. The declaration test at the end imports the real
``benchmarks/bench_*.py`` (nothing is run) and checks what they
declare against the committed ``BENCH_*.json`` files; the claims test
before it drives ``bench_paper.CLAIMS`` over one miniature grid.
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import harness  # noqa: E402

from repro.experiments.figures import ARTIFACTS, ExperimentScale  # noqa: E402

FACTOR = 1.25
TRAJECTORY_BENCHES = ("planner", "serving", "fleet", "chaos")


def fake_bench(value=1.0, failures=(), seen=None, **fields):
    """A trajectory bench measuring ``{"group": {"ratio": value}}``."""

    def run(smoke):
        if seen is not None:
            seen.append(smoke)
        return {"group": {"ratio": value}, "size": "small" if smoke else "big"}, list(failures)

    fields.setdefault("ratios", (("the ratio", "group.ratio"),))
    fields.setdefault("criteria", {"regression_factor": FACTOR})
    return harness.Bench(name="fake", run=run, render=lambda payload: "table", **fields)


def commit(root, **modes):
    """Write a committed baseline with the given ``mode=ratio`` entries."""
    path = root / "BENCH_fake.json"
    document = {
        "schema": 1,
        "criteria": {"regression_factor": FACTOR},
        "modes": {mode: {"group": {"ratio": ratio}} for mode, ratio in modes.items()},
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def gate_failures(capsys):
    return [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("GATE FAIL: ")
    ]


class TestLayouts:
    def test_baseline_is_read_before_out_overwrites_it(self, tmp_path, capsys):
        """``--check`` with the default ``--out`` (the baseline itself)
        compares against what was committed, not what was just written."""
        baseline = commit(tmp_path, smoke=4.0)
        assert harness.main(fake_bench(1.0), ["--smoke", "--check"], root=tmp_path) == 1
        assert len(gate_failures(capsys)) == 1
        # ...and the run still replaced the entry it measured.
        assert json.loads(baseline.read_text())["modes"]["smoke"]["group"]["ratio"] == 1.0

    def test_smoke_and_full_entries_never_clobber_each_other(self, tmp_path):
        baseline = commit(tmp_path, full=2.0)
        full_before = json.dumps(json.loads(baseline.read_text())["modes"]["full"])
        harness.main(fake_bench(3.0), ["--smoke"], root=tmp_path)
        document = json.loads(baseline.read_text())
        assert json.dumps(document["modes"]["full"]) == full_before
        assert document["modes"]["smoke"] == {"group": {"ratio": 3.0}, "size": "small"}

        harness.main(fake_bench(5.0), [], root=tmp_path)
        document = json.loads(baseline.read_text())
        assert document["modes"]["smoke"]["group"]["ratio"] == 3.0
        assert document["modes"]["full"] == {"group": {"ratio": 5.0}, "size": "big"}
        assert list(document) == ["schema", "criteria", "modes"]

    def test_out_elsewhere_is_flat_and_leaves_the_baseline_untouched(self, tmp_path):
        baseline = commit(tmp_path, smoke=1.0)
        before = baseline.read_bytes()
        out = tmp_path / "current.json"
        assert harness.main(fake_bench(1.0), ["--smoke", "--out", str(out)], root=tmp_path) == 0
        assert baseline.read_bytes() == before
        assert json.loads(out.read_text()) == {
            "schema": 1,
            "mode": "smoke",
            "criteria": {"regression_factor": FACTOR},
            "group": {"ratio": 1.0},
            "size": "small",
        }

    def test_a_relative_out_naming_the_baseline_is_the_baseline(self, tmp_path, monkeypatch):
        commit(tmp_path, full=2.0)
        monkeypatch.chdir(tmp_path)
        harness.main(fake_bench(1.0), ["--smoke", "--out", "BENCH_fake.json"], root=tmp_path)
        assert set(json.loads((tmp_path / "BENCH_fake.json").read_text())["modes"]) == {
            "full", "smoke",
        }

    def test_claims_only_bench_has_no_baseline_and_writes_only_on_request(self, tmp_path):
        bench = fake_bench(ratios=(), criteria={})
        assert harness.main(bench, ["--check"], root=tmp_path) == 0
        assert list(tmp_path.iterdir()) == []
        out = tmp_path / "rows.json"
        harness.main(bench, ["--out", str(out)], root=tmp_path)
        assert json.loads(out.read_text())["mode"] == "full"

    def test_smoke_flag_exists_only_on_a_bench_with_a_smoke_size(self, tmp_path):
        seen = []
        bench = fake_bench(ratios=(), criteria={}, has_smoke=False, seen=seen)
        with pytest.raises(SystemExit) as usage:
            harness.main(bench, ["--smoke"], root=tmp_path)
        assert usage.value.code == 2
        harness.main(bench, [], root=tmp_path)
        assert seen == [False]


class TestGate:
    def test_missing_baseline_fails_only_under_check(self, tmp_path, capsys):
        out = str(tmp_path / "current.json")
        assert harness.main(fake_bench(), ["--smoke", "--out", out], root=tmp_path) == 0
        assert harness.main(fake_bench(), ["--smoke", "--check", "--out", out], root=tmp_path) == 1
        (failure,) = gate_failures(capsys)
        assert "no committed baseline" in failure

    def test_missing_mode_entry_fails_only_under_check(self, tmp_path, capsys):
        commit(tmp_path, full=1.0)
        out = str(tmp_path / "current.json")
        assert harness.main(fake_bench(), ["--smoke", "--out", out], root=tmp_path) == 0
        assert harness.main(fake_bench(), ["--smoke", "--check", "--out", out], root=tmp_path) == 1
        (failure,) = gate_failures(capsys)
        assert "no 'smoke' mode entry" in failure

    def test_ratio_at_the_floor_passes_and_just_under_it_fails(self, tmp_path, capsys):
        committed = 2.0
        commit(tmp_path, smoke=committed)
        floor = committed / FACTOR
        args = ["--smoke", "--check", "--out", str(tmp_path / "current.json")]
        assert harness.main(fake_bench(floor), args, root=tmp_path) == 0
        assert gate_failures(capsys) == []
        assert harness.main(fake_bench(floor * (1 - 1e-9)), args, root=tmp_path) == 1
        (failure,) = gate_failures(capsys)
        assert "the ratio" in failure and "regressed" in failure

    def test_gate_compares_same_mode_to_same_mode(self, tmp_path):
        commit(tmp_path, smoke=1.0, full=100.0)
        args = ["--check", "--out", str(tmp_path / "current.json")]
        assert harness.main(fake_bench(1.0), ["--smoke", *args], root=tmp_path) == 0
        assert harness.main(fake_bench(1.0), args, root=tmp_path) == 1

    def test_failed_claim_exits_one_with_one_line(self, tmp_path, capsys):
        commit(tmp_path, smoke=1.0)
        bench = fake_bench(1.0, failures=["hybrimoe lost the race"])
        args = ["--smoke", "--out", str(tmp_path / "current.json")]
        assert harness.main(bench, args, root=tmp_path) == 0
        assert harness.main(bench, ["--check", *args], root=tmp_path) == 1
        assert gate_failures(capsys) == ["GATE FAIL: hybrimoe lost the race"]

    @pytest.mark.parametrize("where", ["measured payload", "committed baseline"])
    def test_unresolved_key_path_is_named_not_raised(self, tmp_path, capsys, where):
        path = "group.missing" if where == "measured payload" else "group.ratio"
        commit(tmp_path, smoke=1.0)
        if where == "committed baseline":
            document = json.loads((tmp_path / "BENCH_fake.json").read_text())
            document["modes"]["smoke"] = {"group": {}}
            (tmp_path / "BENCH_fake.json").write_text(json.dumps(document))
        bench = fake_bench(ratios=(("the ratio", path),))
        args = ["--smoke", "--check", "--out", str(tmp_path / "current.json")]
        assert harness.main(bench, args, root=tmp_path) == 1
        (failure,) = gate_failures(capsys)
        assert repr(path) in failure and where in failure


def test_planner_smoke_run_leaves_the_committed_full_entry_byte_identical(tmp_path):
    """``bench_planner_speed.py --smoke`` used to replace the committed
    full-mode file with smoke numbers; it has the ``modes`` layout now.
    Driven with the real declaration and a canned measurement."""
    planner = importlib.import_module("bench_planner_speed").BENCH
    committed = (REPO_ROOT / "BENCH_planner.json").read_text()
    (tmp_path / "BENCH_planner.json").write_text(committed)
    canned = json.loads(committed)["modes"]["smoke"]
    bench = dataclasses.replace(planner, run=lambda smoke: (canned, []))

    assert harness.main(bench, ["--smoke", "--check"], root=tmp_path) == 0
    assert (tmp_path / "BENCH_planner.json").read_text() == committed


def test_flipping_one_bound_fails_exactly_that_claim(tmp_path, capsys):
    """Each of the 29 claims is gated on its own: with every bound but
    one set to hold, the gate prints one ``GATE FAIL:`` line, naming the
    claim whose bound was moved to the wrong side of its number."""
    paper = importlib.import_module("bench_paper")
    # The smallest grid every claim can read (Fig. 7's needs a >= 512 bucket).
    scale = ExperimentScale(
        num_layers=2, prefill_buckets=(512,), decode_steps=4, trace_decode_steps=16
    )
    artifacts = {name: artifact.measure(scale, 0) for name, artifact in ARTIFACTS.items()}
    reproduced = [row["reproduced"] for row in paper.evaluate(paper.CLAIMS, artifacts)]
    slack = {">": -1.0, ">=": -1.0, "<": 1.0, "<=": 1.0}
    holding = [
        dataclasses.replace(claim, bound=value + slack[claim.op])
        for claim, value in zip(paper.CLAIMS, reproduced)
    ]

    def gate(claims):
        results = paper.evaluate(claims, artifacts)
        bench = dataclasses.replace(
            paper.BENCH,
            run=lambda smoke: ({"claims": results}, paper.failures(results)),
            render=lambda payload: "",
        )
        return harness.main(bench, ["--check"], root=tmp_path), gate_failures(capsys)

    assert len(holding) == 29
    assert gate(holding) == (0, [])
    for index, (claim, value) in enumerate(zip(holding, reproduced)):
        flipped = list(holding)
        flipped[index] = dataclasses.replace(claim, bound=value - slack[claim.op])
        code, lines = gate(flipped)
        assert code == 1 and len(lines) == 1, (claim.label, lines)
        assert f"{claim.artifact}: {claim.label}: " in lines[0]


def test_every_bench_script_declares_a_bench_whose_ratios_resolve():
    scripts = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
    benches = [importlib.import_module(script.stem).BENCH for script in scripts]
    assert all(isinstance(bench, harness.Bench) for bench in benches)
    names = [bench.name for bench in benches]
    assert len(set(names)) == len(names)
    assert {bench.name for bench in benches if bench.ratios} == set(TRAJECTORY_BENCHES)

    for bench in benches:
        if not bench.ratios:
            continue
        committed = json.loads((REPO_ROOT / f"BENCH_{bench.name}.json").read_text())
        assert committed["schema"] == bench.schema
        assert committed["criteria"] == dict(bench.criteria)
        for mode in ("smoke", "full"):
            for label, path in bench.ratios:
                value = harness.resolve(committed["modes"][mode], path)
                assert isinstance(value, float), (bench.name, mode, label, path)
