"""The parallel sweep runner: scenarios x strategies x hardware x seeds.

``run_sweep`` expands a scenario list against optional strategy /
hardware / seed override axes into a grid of **cells**, runs each cell
in a worker process (``multiprocessing``; serial when ``processes=1``),
and writes one JSON file per cell plus a pooled, deterministic
``sweep.json`` merged report.

Resumability is the design center:

- every cell file embeds the exact :class:`ScenarioSpec` dict it was
  run from; a re-run **skips** any cell whose file already matches its
  spec (corrupted, stale-spec or foreign files are re-run, never
  trusted);
- a cell's payload is a pure function of its spec — no timestamps, no
  host names, NaN normalised to ``null`` — so a sweep killed after N
  cells and resumed produces a merged report **byte-identical** to an
  uninterrupted run (test-enforced);
- the merged report is rebuilt by re-reading the cell files (never
  from in-memory results), so the bytes on disk are the single source
  of truth.

A single-cell sweep is bit-identical to calling the factories by hand:
the worker does nothing but ``spec.run(seed)`` and records the report's
summary rows.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigError
from repro.scenarios.registry import get_scenario
from repro.scenarios.scenario import ScenarioSpec

__all__ = ["SWEEP_SCHEMA_VERSION", "SweepReport", "run_sweep", "sweep_cells"]

#: Bump when the cell / merged payload layout changes; resuming over
#: cells of another schema re-runs them.
SWEEP_SCHEMA_VERSION = 3

_CELL_DIR = "cells"
_MERGED_NAME = "sweep.json"


def _jsonify(value: Any) -> Any:
    """Normalise a result value for deterministic JSON output.

    numpy scalars become Python scalars, tuples become lists, and
    non-finite floats become ``null`` — ``float("nan")`` would
    serialise as bare ``NaN``, which is not valid JSON and would make
    the merged report unreadable to anything but Python.
    """
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def _dumps(payload: dict) -> str:
    """The one JSON encoding used for every sweep artifact."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    """Write-then-rename so a killed run never leaves a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
def _cell_meta(spec: ScenarioSpec, scenario_name: str) -> dict[str, Any]:
    """The cell's grid coordinates (stable identity across resumes)."""
    return {
        "scenario": scenario_name,
        "strategy": spec.strategy,
        "hardware": spec.hardware,
        "seed": int(spec.seeds[0]),
    }


def _cell_id(meta: Mapping[str, Any]) -> str:
    return (
        f"{meta['scenario']}__{meta['strategy']}__{meta['hardware']}"
        f"__seed{meta['seed']}"
    )


def sweep_cells(
    scenarios: Sequence[str | ScenarioSpec],
    strategies: Sequence[str] | None = None,
    hardware: Sequence[str] | None = None,
    seeds: Sequence[int] | None = None,
    max_requests: int | None = None,
    max_steps: int | None = None,
) -> list[tuple[str, dict[str, Any], ScenarioSpec]]:
    """Expand the sweep grid into ``(cell_id, meta, spec)`` triples.

    ``scenarios`` entries are registry names or literal specs. A
    ``None`` axis keeps each scenario's own value (its configured
    strategy / hardware / seed list); an explicit axis applies to every
    scenario. Cells are returned sorted by cell id — the deterministic
    order the merged report uses.
    """
    if not scenarios:
        raise ConfigError("sweep needs at least one scenario")
    cells: list[tuple[str, dict[str, Any], ScenarioSpec]] = []
    seen: set[str] = set()
    for entry in scenarios:
        base = get_scenario(entry) if isinstance(entry, str) else entry
        if not isinstance(base, ScenarioSpec):
            raise ConfigError(
                f"sweep scenarios must be names or ScenarioSpecs, got "
                f"{type(entry).__name__}"
            )
        strategy_axis = list(strategies) if strategies else [None]
        hardware_axis = list(hardware) if hardware else [None]
        seed_axis = [int(s) for s in seeds] if seeds else list(base.seeds)
        for strategy in strategy_axis:
            for hw in hardware_axis:
                for seed in seed_axis:
                    spec = base.with_overrides(
                        strategy=strategy,
                        hardware=hw,
                        seed=seed,
                        max_requests=max_requests,
                        max_steps=max_steps,
                    )
                    meta = _cell_meta(spec, base.name)
                    cell_id = _cell_id(meta)
                    if cell_id in seen:
                        raise ConfigError(
                            f"duplicate sweep cell {cell_id!r} (the same "
                            f"scenario appears twice on the grid)"
                        )
                    seen.add(cell_id)
                    cells.append((cell_id, meta, spec))
    cells.sort(key=lambda c: c[0])
    return cells


# ----------------------------------------------------------------------
# cell execution (runs inside worker processes)
# ----------------------------------------------------------------------
def _report_payload(report) -> dict[str, Any]:
    """Flatten a ServingReport or FleetReport into plain JSON rows."""
    # FleetReport quacks differently from ServingReport: detect by the
    # per_replica attribute rather than importing fleet types in the
    # worker (ServingReport also has a `merged` *classmethod*, so that
    # name does not discriminate).
    if hasattr(report, "per_replica"):
        merged = report.merged
        payload = {
            "kind": "fleet",
            "summary": _jsonify(report.summary()),
            "per_request": _jsonify(merged.per_request_rows()),
            "class_summary": _jsonify(merged.class_summary()),
            "per_replica": _jsonify(
                [
                    {"replica": rid, **rep.summary()}
                    for rid, rep in report.per_replica
                ]
            ),
            "assignments": {
                str(rid): count
                for rid, count in sorted(report.assignment_counts().items())
            },
        }
    else:
        payload = {
            "kind": "serving",
            "summary": _jsonify(report.summary()),
            "per_request": _jsonify(report.per_request_rows()),
            "class_summary": _jsonify(report.class_summary()),
        }
    return payload


def run_cell(spec: ScenarioSpec, seed: int | None = None) -> dict[str, Any]:
    """Run one scenario cell and return its JSON payload.

    Captures every warning the run emits (e.g. the non-monotone-trace
    reorder warning from
    :func:`~repro.serving.engine.requests_from_trace`) into the
    payload's ``warnings`` list — a scenario built on a warning-emitting
    trace reports it in its cell output instead of swallowing it.
    """
    spec = spec if seed is None else spec.with_overrides(seed=seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = spec.run()
    payload: dict[str, Any] = {
        "schema": SWEEP_SCHEMA_VERSION,
        "cell": _cell_meta(spec, spec.name),
        "spec": spec.to_dict(),
    }
    payload.update(_report_payload(report))
    payload["warnings"] = [
        {"category": w.category.__name__, "message": str(w.message)}
        for w in caught
    ]
    return payload


def _run_cell_to_file(args: tuple[dict[str, Any], str, str]) -> str:
    """Worker entry point: run one cell and atomically write its file."""
    spec_dict, cell_path, _cell_id_label = args
    spec = ScenarioSpec.from_dict(spec_dict)
    payload = run_cell(spec)
    _atomic_write(Path(cell_path), _dumps(payload))
    return _cell_id_label


# ----------------------------------------------------------------------
# merged report
# ----------------------------------------------------------------------
@dataclass
class SweepReport:
    """The pooled outcome of a sweep: one payload per cell, id-sorted."""

    cells: list[dict[str, Any]] = field(default_factory=list)

    def rows(self) -> list[dict[str, Any]]:
        """One flat table row per cell (for ``format_table`` / CSV)."""
        rows = []
        for cell in self.cells:
            summary = cell.get("summary", {})
            rows.append(
                {
                    "scenario": cell["cell"]["scenario"],
                    "strategy": cell["cell"]["strategy"],
                    "hardware": cell["cell"]["hardware"],
                    "seed": cell["cell"]["seed"],
                    "kind": cell.get("kind", ""),
                    "requests": summary.get("requests"),
                    "completed": summary.get("completed"),
                    "goodput_rps": summary.get("goodput_rps"),
                    "p99_ttft_s": summary.get("p99_ttft_s"),
                    "p99_tbt_s": summary.get("p99_tbt_s"),
                    "hit_rate": summary.get("hit_rate"),
                    "warnings": len(cell.get("warnings", [])),
                }
            )
        return rows

    def to_json(self) -> str:
        """Deterministic merged-report encoding (the ``sweep.json`` bytes)."""
        return _dumps(
            {
                "schema": SWEEP_SCHEMA_VERSION,
                "num_cells": len(self.cells),
                "cells": self.cells,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        data = json.loads(text)
        if data.get("schema") != SWEEP_SCHEMA_VERSION:
            raise ConfigError(
                f"sweep report schema {data.get('schema')!r} != "
                f"{SWEEP_SCHEMA_VERSION} (re-run the sweep)"
            )
        return cls(cells=list(data.get("cells", [])))

    @classmethod
    def load(cls, out_dir: str | Path) -> "SweepReport":
        """Read a merged report back from a sweep output directory."""
        return cls.from_json((Path(out_dir) / _MERGED_NAME).read_text())


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def _reusable(path: Path, meta: Mapping[str, Any], spec: ScenarioSpec) -> bool:
    """Whether an existing cell file is a trusted result for this cell.

    Trust requires the file to parse, carry the current schema, and
    embed exactly this cell's coordinates and spec — anything else
    (torn writes, schema bumps, a scenario whose definition changed
    since the file was written) re-runs the cell.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return (
        isinstance(data, dict)
        and data.get("schema") == SWEEP_SCHEMA_VERSION
        and data.get("cell") == dict(meta)
        and data.get("spec") == spec.to_dict()
        and "summary" in data
    )


def run_sweep(
    scenarios: Sequence[str | ScenarioSpec],
    out_dir: str | Path,
    strategies: Sequence[str] | None = None,
    hardware: Sequence[str] | None = None,
    seeds: Sequence[int] | None = None,
    processes: int = 1,
    max_requests: int | None = None,
    max_steps: int | None = None,
    force: bool = False,
    log: Callable[[str], None] | None = None,
) -> SweepReport:
    """Run (or resume) a sweep grid; returns the merged report.

    Parameters
    ----------
    scenarios:
        Registry names and/or literal :class:`ScenarioSpec` objects.
    out_dir:
        Output directory: per-cell files land in ``out_dir/cells/``,
        the merged report in ``out_dir/sweep.json``. Re-running with
        the same directory resumes — completed cells are skipped and
        the merged report is byte-identical to an uninterrupted run.
    strategies / hardware / seeds:
        Override axes; ``None`` keeps each scenario's own value.
    processes:
        Worker processes for pending cells (1 = run serially in this
        process; results are identical either way).
    max_requests / max_steps:
        Workload size caps applied to every cell (CI smoke controls).
    force:
        Re-run every cell even when a trusted file exists.
    log:
        Optional progress sink (e.g. ``print``); one line per cell.
    """
    if processes < 1:
        raise ConfigError(f"processes must be >= 1, got {processes}")
    out_path = Path(out_dir)
    cell_dir = out_path / _CELL_DIR
    cell_dir.mkdir(parents=True, exist_ok=True)

    cells = sweep_cells(
        scenarios,
        strategies=strategies,
        hardware=hardware,
        seeds=seeds,
        max_requests=max_requests,
        max_steps=max_steps,
    )
    say = log or (lambda _line: None)

    pending: list[tuple[dict[str, Any], str, str]] = []
    for cell_id, meta, spec in cells:
        path = cell_dir / f"{cell_id}.json"
        if not force and _reusable(path, meta, spec):
            say(f"[skip] {cell_id} (completed cell reused)")
            continue
        pending.append((spec.to_dict(), str(path), cell_id))

    if pending:
        if processes > 1 and len(pending) > 1:
            with multiprocessing.Pool(min(processes, len(pending))) as pool:
                for done in pool.imap_unordered(_run_cell_to_file, pending):
                    say(f"[done] {done}")
        else:
            for args in pending:
                say(f"[done] {_run_cell_to_file(args)}")

    # Merge by re-reading the files: the bytes on disk are the source
    # of truth, so resumed and uninterrupted sweeps merge identically.
    payloads = []
    for cell_id, _meta, _spec in cells:
        path = cell_dir / f"{cell_id}.json"
        try:
            payloads.append(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"sweep cell {cell_id!r} has no readable output at {path}: {exc}"
            ) from None
    report = SweepReport(cells=payloads)
    _atomic_write(out_path / _MERGED_NAME, report.to_json())
    say(f"[merged] {len(payloads)} cells -> {out_path / _MERGED_NAME}")
    return report
