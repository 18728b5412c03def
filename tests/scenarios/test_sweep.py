"""The sweep runner: grids, resumability, byte-identical merged reports."""

import json
import warnings
from pathlib import Path

import pytest

from repro.engine.factory import make_serving_engine
from repro.errors import ConfigError
from repro.scenarios import (
    SWEEP_SCHEMA_VERSION,
    EngineSpec,
    FleetSpec,
    ScenarioSpec,
    ServingSpec,
    SweepReport,
    WorkloadRecipe,
    available_scenarios,
    get_scenario,
    run_cell,
    run_sweep,
    sweep_cells,
)
from repro.scenarios import sweep as sweep_module


def _tiny(name="tiny-sweep", seeds=(0,)):
    return ScenarioSpec(
        name=name,
        workload=WorkloadRecipe(
            kind="poisson",
            params={"num_requests": 3, "arrival_rate": 4.0, "decode_steps": 2},
        ),
        fleet=FleetSpec(
            serving=ServingSpec(engine=EngineSpec(cache_ratio=0.4, num_layers=2)),
            replicas=1,
        ),
        seeds=seeds,
    )


class TestSweepCells:
    def test_grid_expansion_and_order(self):
        cells = sweep_cells(
            [_tiny()], strategies=["hybrimoe", "ondemand"], seeds=[0, 1]
        )
        assert len(cells) == 4
        ids = [cell_id for cell_id, _meta, _spec in cells]
        assert ids == sorted(ids)

    def test_axes_default_to_scenario_values(self):
        cells = sweep_cells([_tiny(seeds=(3, 5))])
        assert [meta["seed"] for _id, meta, _spec in cells] == [3, 5]
        assert all(meta["strategy"] == "hybrimoe" for _id, meta, _spec in cells)

    def test_duplicate_grid_cell_rejected(self):
        with pytest.raises(ConfigError, match="duplicate sweep cell"):
            sweep_cells([_tiny(), _tiny()])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="at least one scenario"):
            sweep_cells([])

    @pytest.mark.parametrize("name", available_scenarios())
    def test_cell_id_is_the_four_coordinates(self, name):
        """A cell is named by scenario, strategy, hardware and seed —
        nothing else varies across a sweep grid."""
        cells = sweep_cells([name])
        assert [meta["seed"] for _, meta, _ in cells] == list(get_scenario(name).seeds)
        for cell_id, meta, spec in cells:
            assert list(meta) == ["scenario", "strategy", "hardware", "seed"]
            assert cell_id == (
                f"{name}__{spec.strategy}__{spec.hardware}__seed{spec.seeds[0]}"
            )
            assert spec.seeds == (meta["seed"],)

    def test_registry_names_resolve(self):
        cells = sweep_cells(["chat-multiturn"])
        assert cells[0][1]["scenario"] == "chat-multiturn"


class TestCellBitIdentity:
    def test_single_cell_sweep_equals_direct_factory_invocation(self, tmp_path):
        """Acceptance criterion: sweep cell == hand-written factory call.

        The cell payload must carry exactly the bytes the direct
        ``make_serving_engine(...)`` run would produce when flattened
        through the same payload encoder — no scenario-layer drift.
        """
        spec = _tiny()
        report = run_sweep([spec], tmp_path)
        assert len(report.cells) == 1
        cell = report.cells[0]

        direct_engine = make_serving_engine(
            cache_ratio=0.4, num_layers=2, max_batch_size=8
        )
        direct = direct_engine.serve_trace(spec.build_trace(seed=0))
        expected = json.loads(
            sweep_module._dumps(sweep_module._report_payload(direct))
        )
        for key in ("kind", "summary", "per_request", "class_summary"):
            assert cell[key] == expected[key]

    def test_run_cell_matches_spec_run(self):
        spec = _tiny()
        payload = run_cell(spec)
        assert payload["summary"] == sweep_module._jsonify(spec.run().summary())
        assert payload["spec"] == spec.to_dict()
        assert payload["cell"]["scenario"] == "tiny-sweep"

    def test_fleet_cell_with_an_idle_replica(self):
        """One request over a 2-replica fleet leaves a replica with no
        request; its per-replica row has null window metrics instead of
        crashing the payload."""
        payload = run_cell(get_scenario("skewed-fleet").with_overrides(max_requests=1))
        rows = payload["per_replica"]
        assert sorted(row["requests"] for row in rows) == [0, 1]
        idle = next(row for row in rows if row["requests"] == 0)
        assert idle["makespan_s"] is None and idle["goodput_rps"] is None
        assert payload["summary"]["completed"] == 1


class TestCompleteness:
    def test_every_cell_of_the_smoke_grid_completes_every_request(self, tmp_path):
        """No lost or stuck requests on shedding-free registry scenarios
        (the grid CI's ``scenario-matrix`` job sweeps through the CLI)."""
        scenarios = ["chat-multiturn", "edge-decode"]
        strategies = ["hybrimoe", "ondemand"]
        report = run_sweep(
            scenarios, tmp_path, strategies=strategies, max_requests=2, max_steps=2
        )
        assert len(report.cells) == len(scenarios) * len(strategies)
        for cell in report.cells:
            summary = cell["summary"]
            assert summary["completed"] == summary["requests"] > 0, cell["cell"]


class TestResumability:
    def _grid(self):
        return dict(
            scenarios=[_tiny(seeds=(0, 1))],
            strategies=["hybrimoe", "ondemand"],
        )

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path, monkeypatch):
        """Acceptance criterion: kill after N cells, resume, same bytes."""
        straight = run_sweep(out_dir=tmp_path / "a", **self._grid())
        bytes_a = (tmp_path / "a" / "sweep.json").read_bytes()
        assert len(straight.cells) == 4

        # Simulate the kill: the worker dies after completing 2 cells.
        real_worker = sweep_module._run_cell_to_file
        completed = []

        def dying_worker(args):
            if len(completed) == 2:
                raise KeyboardInterrupt
            completed.append(real_worker(args))
            return completed[-1]

        monkeypatch.setattr(sweep_module, "_run_cell_to_file", dying_worker)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(out_dir=tmp_path / "b", **self._grid())
        monkeypatch.setattr(sweep_module, "_run_cell_to_file", real_worker)
        assert len(completed) == 2
        assert not (tmp_path / "b" / "sweep.json").exists()

        # Resume: the 2 completed cells are skipped, not re-run.
        lines = []
        resumed = run_sweep(out_dir=tmp_path / "b", log=lines.append, **self._grid())
        skips = [line for line in lines if line.startswith("[skip]")]
        assert len(skips) == 2
        assert {s.split()[1] for s in skips} == set(completed)

        assert (tmp_path / "b" / "sweep.json").read_bytes() == bytes_a
        assert resumed.to_json().encode() == bytes_a

    def test_rerun_of_finished_sweep_is_all_skips(self, tmp_path):
        run_sweep(out_dir=tmp_path, **self._grid())
        before = (tmp_path / "sweep.json").read_bytes()
        lines = []
        run_sweep(out_dir=tmp_path, log=lines.append, **self._grid())
        assert sum(line.startswith("[skip]") for line in lines) == 4
        assert sum(line.startswith("[done]") for line in lines) == 0
        assert (tmp_path / "sweep.json").read_bytes() == before

    def test_stale_spec_cell_is_rerun(self, tmp_path):
        report = run_sweep([_tiny()], tmp_path)
        cell_path = next((tmp_path / "cells").glob("*.json"))
        stale = json.loads(cell_path.read_text())
        stale["spec"]["fleet"]["serving"]["max_batch_size"] = 99
        cell_path.write_text(json.dumps(stale))

        lines = []
        rerun = run_sweep([_tiny()], tmp_path, log=lines.append)
        assert any(line.startswith("[done]") for line in lines)
        assert rerun.to_json() == report.to_json()

    def test_cell_of_an_older_schema_is_rerun(self, tmp_path):
        """A cell written before the grid lost its predictor axis carries
        the older schema and a ``predictor`` coordinate: not trusted."""
        report = run_sweep([_tiny()], tmp_path)
        cell_path = next((tmp_path / "cells").glob("*.json"))
        old = json.loads(cell_path.read_text())
        old["schema"] = SWEEP_SCHEMA_VERSION - 1
        old["cell"]["predictor"] = None
        cell_path.write_text(json.dumps(old))

        lines = []
        rerun = run_sweep([_tiny()], tmp_path, log=lines.append)
        assert any(line.startswith("[done]") for line in lines)
        assert not any(line.startswith("[skip]") for line in lines)
        assert rerun.to_json() == report.to_json()

    def test_corrupt_cell_file_is_rerun(self, tmp_path):
        report = run_sweep([_tiny()], tmp_path)
        cell_path = next((tmp_path / "cells").glob("*.json"))
        cell_path.write_text("{ torn write")
        rerun = run_sweep([_tiny()], tmp_path)
        assert rerun.to_json() == report.to_json()

    def test_force_reruns_completed_cells(self, tmp_path):
        run_sweep([_tiny()], tmp_path)
        lines = []
        run_sweep([_tiny()], tmp_path, force=True, log=lines.append)
        assert any(line.startswith("[done]") for line in lines)
        assert not any(line.startswith("[skip]") for line in lines)

    def test_parallel_equals_serial(self, tmp_path):
        serial = run_sweep(out_dir=tmp_path / "serial", **self._grid())
        parallel = run_sweep(out_dir=tmp_path / "par", processes=2, **self._grid())
        assert parallel.to_json() == serial.to_json()
        assert (tmp_path / "par" / "sweep.json").read_bytes() == (
            tmp_path / "serial" / "sweep.json"
        ).read_bytes()

    def test_bad_process_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="processes"):
            run_sweep([_tiny()], tmp_path, processes=0)


class TestWarningSurfacing:
    """A warning the run emits lands in its cell output, not on stderr."""

    @pytest.fixture
    def warning_run(self, monkeypatch):
        run = ScenarioSpec.run

        def warn_then_run(spec, seed=None):
            warnings.warn("arrival trace is not non-decreasing", UserWarning)
            return run(spec, seed)

        monkeypatch.setattr(ScenarioSpec, "run", warn_then_run)

    def test_warning_lands_in_cell_output(self, warning_run):
        assert run_cell(_tiny())["warnings"] == [
            {"category": "UserWarning", "message": "arrival trace is not non-decreasing"}
        ]

    def test_quiet_run_emits_no_warnings(self):
        assert run_cell(_tiny())["warnings"] == []

    def test_warning_count_reaches_report_rows(self, warning_run, tmp_path):
        (row,) = run_sweep([_tiny()], tmp_path).rows()
        assert row["warnings"] == 1


class TestSweepReport:
    def test_load_roundtrip(self, tmp_path):
        report = run_sweep([_tiny()], tmp_path)
        loaded = SweepReport.load(tmp_path)
        assert loaded.to_json() == report.to_json()

    def test_rows_have_grid_coordinates(self, tmp_path):
        report = run_sweep([_tiny()], tmp_path, strategies=["hybrimoe", "ondemand"])
        rows = report.rows()
        assert {r["strategy"] for r in rows} == {"hybrimoe", "ondemand"}
        assert all(r["scenario"] == "tiny-sweep" for r in rows)
        assert all(r["kind"] == "serving" for r in rows)
        assert all(r["requests"] == 3 for r in rows)

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            SweepReport.from_json(json.dumps({"schema": -1, "cells": []}))

    def test_fleet_cells_carry_per_replica_rows(self, tmp_path):
        spec = ScenarioSpec(
            name="tiny-fleet",
            workload=WorkloadRecipe(
                kind="poisson",
                params={"num_requests": 4, "arrival_rate": 6.0, "decode_steps": 2},
            ),
            fleet=FleetSpec(
                serving=ServingSpec(
                    engine=EngineSpec(cache_ratio=0.4, num_layers=2)
                ),
                replicas=2,
            ),
        )
        report = run_sweep([spec], tmp_path)
        (cell,) = report.cells
        assert cell["kind"] == "fleet"
        assert len(cell["per_replica"]) == 2
        assert sum(cell["assignments"].values()) == 4

    def test_deleted_cell_file_is_rerun(self, tmp_path):
        report = run_sweep([_tiny()], tmp_path)
        for path in (tmp_path / "cells").glob("*.json"):
            Path(path).unlink()
        rerun = run_sweep([_tiny()], tmp_path)
        assert rerun.to_json() == report.to_json()
