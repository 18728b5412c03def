#!/usr/bin/env python3
"""Alternating parent/change pairs of perf-ledger workloads.

Exports ``--parent`` with ``git archive`` into a temporary directory (a
plain tree, no worktree metadata), then, for each workload of the
comma-separated ``--workload`` list in turn, runs ``bench/run.py
--workload W --seed N --seconds S --trace 0`` there and in this
checkout, ``--pairs`` times, alternating which side runs first. After
each workload's pairs it prints, for every end-to-end metric of
``BENCHMARK.json``, each side's median [q1, q3], the change/parent
ratio of the medians, the pairs the change won and a verdict:
``better`` (or ``worse``) when the change won (or lost) at least 9
pairs in 10 and the medians lie further apart than the parent's
quartiles, else ``unresolved``. Simulated time is deterministic, so
every ``sim_*`` metric must read the same in every run of a workload;
each table ends in that workload's ``sim_*`` verdict, and the tool exits
1 when one workload's ``sim_*`` values moved, or when a run fails.

Each side reads and writes its bytecode under its own
``PYTHONPYCACHEPREFIX`` in the temporary directory, with ``src/`` and
``bench/`` compiled there before the first pair, so no measured run
compiles a module of the program. (Under ``PYTHONDONTWRITEBYTECODE=1``
the exported parent otherwise compiled every module on each run, and
``setup_s`` read 0.51-0.85x in the change's favour.)

Usage::

    python tools/ab_ledger.py --parent HEAD~1 --workload prefill_long --seed 3
    python tools/ab_ledger.py --parent main --workload decode_hot,serve_poisson --pairs 4 --seconds 8

The pairs share one machine, so nothing else should run beside them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
#: Share of the pairs one side must win for a resolved difference.
WIN_SHARE = 0.9


def contract_metrics(stdout: str) -> dict[str, float]:
    """The metric values of a ``bench/run.py`` contract line (its last line)."""
    line = json.loads(stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise ValueError(f"run failed its checks: {line}")
    return {name: metric["value"] for name, metric in line["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of one side's readings."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarise(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per-metric pair statistics of ``(parent, change)`` metric dicts.

    ``better`` maps each end-to-end metric to ``"lower"`` or
    ``"higher"``. Returns ``{"rows": [...], "sim_differs": [...]}``: one
    row per metric of ``better`` and the ``sim_*`` metrics that did not
    read the same in every run.
    """
    rows = []
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        (pm, pq1, pq3), (cm, cq1, cq3) = spread(parent), spread(change)
        verdict = "unresolved"
        if abs(cm - pm) > pq3 - pq1:
            if wins >= WIN_SHARE * len(pairs):
                verdict = "better"
            elif losses >= WIN_SHARE * len(pairs):
                verdict = "worse"
        rows.append({
            "metric": name,
            "parent": (pm, pq1, pq3),
            "change": (cm, cq1, cq3),
            "ratio": cm / pm if pm else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "verdict": verdict,
        })
    runs = [run for pair in pairs for run in pair]
    sims = sorted({name for run in runs for name in run if name.startswith("sim_")})
    differs = [name for name in sims if len({run.get(name) for run in runs}) > 1]
    return {"rows": rows, "sim_differs": differs}


def format_table(summary: dict) -> str:
    """The summary as the plain-text table the tool prints."""
    def side(values):
        median, q1, q3 = values
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

    lines = [f"{'metric':<20}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}"
             f"{'ratio':>8}{'won':>7}  verdict"]
    for row in summary["rows"]:
        lines.append(
            f"{row['metric']:<20}{side(row['parent']):>32}{side(row['change']):>32}"
            f"{row['ratio']:>8.3f}{row['wins']:>4}/{row['pairs']:<2}  {row['verdict']}"
        )
    differs = summary["sim_differs"]
    lines.append("sim_* identical in every run" if not differs
                 else "sim_* DIFFER: " + ", ".join(differs))
    return "\n".join(lines)


def export_tree(ref: str, into: Path) -> Path:
    """``git archive`` of ``ref`` unpacked under ``into``."""
    done = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", ref], capture_output=True
    )
    if done.returncode != 0:
        raise SystemExit(f"ab_ledger: git archive {ref}: {done.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def side_env(tree: Path, prefix: Path) -> dict[str, str]:
    """The environment of every command of one side, its bytecode compiled.

    The side's bytecode lives under ``prefix`` only, so it may be
    written (``PYTHONDONTWRITEBYTECODE`` is dropped): the bench's first
    run adds the modules it imports from outside ``src/`` and ``bench/``.
    """
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: compileall exited {done.returncode}\n{done.stdout}")
    return env


def run_side(tree: Path, env: dict[str, str], workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: bench exited {done.returncode}\n{done.stderr}")
    return contract_metrics(done.stdout)


def workload_list(text: str) -> list[str]:
    """The names of a comma-separated ``--workload`` value, in order."""
    names = [name.strip() for name in text.split(",")]
    if not all(names):
        raise argparse.ArgumentTypeError(f"empty workload name in {text!r}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", required=True, type=workload_list,
                        help="one workload, or several separated by commas")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    moved = False
    with tempfile.TemporaryDirectory(prefix="ab_ledger_") as scratch:
        parent_tree = export_tree(args.parent, Path(scratch) / "parent")
        sides = {"parent": parent_tree, "change": REPO_ROOT}
        envs = {side: side_env(tree, Path(scratch) / "pycache" / side)
                for side, tree in sides.items()}
        for workload in args.workload:
            pairs = []
            for index in range(args.pairs):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                got = {side: run_side(sides[side], envs[side], workload, args.seed,
                                      args.seconds)
                       for side in order}
                pairs.append((got["parent"], got["change"]))
                print(f"{workload} pair {index + 1}/{args.pairs} ({order[0]} first): "
                      + "  ".join(f"{name} {got['parent'][name]:.5g} -> {got['change'][name]:.5g}"
                                  for name in better), flush=True)
            summary = summarise(pairs, better)
            print(f"{workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
                  f"parent {args.parent}")
            print(format_table(summary), flush=True)
            moved = moved or bool(summary["sim_differs"])
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
