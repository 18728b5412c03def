"""The one driver behind every ``benchmarks/bench_*.py``.

A bench script declares a :class:`Bench` — its sizes, ``run(smoke)``
returning the measured payload plus its hard claims as failure
strings, the ratios its trajectory tracks and a table renderer — and
ends in ``raise SystemExit(harness.main(BENCH))``. Everything a bench
does not own lives here, once:

- the ``sys.path`` bootstrap, so ``python benchmarks/bench_x.py`` runs
  from a bare checkout;
- the three flags: ``--smoke`` (only on a bench that has a smoke
  size), ``--check`` and ``--out``;
- the committed baseline ``BENCH_<name>.json`` of a bench that tracks
  ratios, read *before* anything is written;
- the two file layouts: ``{"schema", "criteria", "modes": {"smoke" |
  "full": payload}}`` when ``--out`` is the baseline (one entry per
  mode, so a smoke run never clobbers the full-mode trajectory) and
  the flat ``{"schema", "mode", "criteria", **payload}`` anywhere else;
- the gate (``--check``): every failed claim, plus every tracked ratio
  with ``now < committed[same mode] / criteria["regression_factor"]``,
  is one ``GATE FAIL:`` line on stderr and the exit code is 1. Without
  ``--check`` the run only measures, prints and writes.

Usage, for every script::

    python benchmarks/bench_serving.py                   # full run, merged into BENCH_serving.json
    python benchmarks/bench_serving.py --smoke --check --out BENCH_serving.current.json
    python benchmarks/bench_paper.py --check             # claims-only: no baseline, one size
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
# ``repro`` lives under src/, the reference planner under tests/ (a
# package path from the root), the chaos harness under tools/.
for _path in (REPO_ROOT / "tools", REPO_ROOT, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.engine.factory import make_serving_engine  # noqa: E402
from repro.experiments.figures import ExperimentScale  # noqa: E402
from repro.workloads.generator import serving_workload  # noqa: E402

#: Grid sizing of the paper-artifact benches. Layer counts are reduced
#: (scheduling decisions are per-layer, so relative results are
#: preserved; only absolute latencies shrink proportionally) while the
#: full bucket / ratio / framework grids are retained.
BENCH_SCALE = ExperimentScale(
    num_layers=10,
    prefill_buckets=(32, 128, 512, 1024),
    decode_steps=24,
    trace_decode_steps=192,
)

BENCH_SEED = 0


@dataclass(frozen=True)
class Bench:
    """What one ``bench_*.py`` declares; :func:`main` drives it.

    ``run(smoke)`` returns ``(payload, failures)``: the JSON-ready
    measurements and one string per hard claim that does not hold.
    ``ratios`` lists ``(label, dotted key path into the payload)``
    pairs; a bench that lists any has a committed
    ``BENCH_<name>.json`` and ``criteria["regression_factor"]``.
    """

    name: str
    run: Callable[[bool], tuple[dict, list[str]]]
    render: Callable[[dict], str]
    has_smoke: bool = True
    schema: int = 1
    criteria: Mapping[str, float] = field(default_factory=dict)
    ratios: Sequence[tuple[str, str]] = ()


def resolve(payload, path: str):
    """The value at a dotted key path, ``None`` when it does not resolve."""
    node = payload
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def ratio_failures(bench: Bench, payload: dict, committed: dict) -> list[str]:
    """Tracked ratios that regressed versus the same mode's committed entry."""
    factor = bench.criteria["regression_factor"]
    failures = []
    for label, path in bench.ratios:
        now, then = resolve(payload, path), resolve(committed, path)
        if now is None or then is None:
            where = "measured payload" if now is None else "committed baseline"
            failures.append(f"{label}: key path {path!r} does not resolve in the {where}")
        elif now < then / factor:
            failures.append(
                f"{label} regressed >{factor:g}x: {now:.4g} vs committed "
                f"{then:.4g} (floor {then / factor:.4g})"
            )
    return failures


def main(bench: Bench, argv: Sequence[str] | None = None, root: Path = REPO_ROOT) -> int:
    baseline_path = root / f"BENCH_{bench.name}.json" if bench.ratios else None
    parser = argparse.ArgumentParser(description=f"{bench.name} bench")
    if bench.has_smoke:
        parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on a failed claim or a ratio regression vs the committed baseline",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=baseline_path,
        help=f"where to write the results (default: {baseline_path or 'nowhere'})",
    )
    args = parser.parse_args(argv)
    smoke = bench.has_smoke and args.smoke
    mode = "smoke" if smoke else "full"

    # Read the committed baseline before writing anything: `--check`
    # compares against the pre-run state even when --out is the
    # baseline file itself.
    baseline = None
    if baseline_path is not None and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    payload, failures = bench.run(smoke)

    if args.out is not None:
        criteria = dict(bench.criteria)
        if baseline_path is not None and args.out.resolve() == baseline_path.resolve():
            modes = dict((baseline or {}).get("modes", {}))
            modes[mode] = payload
            document = {"schema": bench.schema, "criteria": criteria, "modes": modes}
        else:
            document = {"schema": bench.schema, "mode": mode, "criteria": criteria, **payload}
        args.out.write_text(json.dumps(document, indent=2) + "\n")

    print(f"{bench.name} bench ({mode}):")
    print(bench.render(payload))
    if args.out is not None:
        print(f"wrote {args.out}")
    if not args.check:
        return 0

    failures = list(failures)
    if baseline_path is not None:
        committed = (baseline or {}).get("modes", {}).get(mode)
        if baseline is None:
            failures.append(f"no committed baseline at {baseline_path}")
        elif committed is None:
            failures.append(f"committed baseline has no '{mode}' mode entry")
        else:
            failures += ratio_failures(bench, payload, committed)
    for failure in failures:
        print(f"GATE FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("gate: ok")
    return 0


def strategy_race(
    strategies: Iterable[str],
    engine_knobs: Mapping,
    trace_knobs: Mapping,
    extra_columns: Callable[[object], dict] | None = None,
) -> list[dict]:
    """Serve one Poisson trace per strategy on the deepseek preset.

    One ``ServingReport.summary()`` row per strategy, in the order
    given, extended by ``extra_columns(serving_engine)`` — what a race
    reads off the platform it configured (per-device or per-tier hit
    rates, disk traffic).
    """
    rows = []
    for strategy in strategies:
        serving = make_serving_engine(model="deepseek", strategy=strategy, **engine_knobs)
        row = serving.serve_trace(serving_workload(**trace_knobs)).summary()
        if extra_columns is not None:
            row.update(extra_columns(serving))
        rows.append(row)
    return rows
