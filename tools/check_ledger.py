#!/usr/bin/env python3
"""Fail when a perf ledger lost sight of a traced seam or of the plan memo.

``bench/run.py --out ledger.json`` wraps functions under ``src/`` by
dotted name. A seam that was renamed or deleted is listed in its run's
``missing_seams`` and its metrics turn to ``null`` — the run itself
still exits 0. This gate makes both loud, and additionally holds every
traced run to a non-zero ``models.expert_forward.calls``: expert math
is on every workload's path, so a zero there means the work moved
around the seam and the ledger no longer sees it. The traced
``decode_hot`` run must also report a ``core.planner.memo_hit_share`` of
at least 0.6: the share is an exact count (0.80 at smoke size, 0.94 at
full size; 0.18 when the memo was keyed on expert ids), so a fall below
the floor means decode planning stopped hitting the memo, whatever the
wall clock says.

Usage::

    python tools/check_ledger.py ledger.json

Exit status 0 when the ledger is sound, 1 with one line per problem
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXPERT_CALLS = "models.expert_forward.calls"
MEMO_HIT_SHARE = "core.planner.memo_hit_share"
DECODE_MEMO_FLOOR = 0.6


def ledger_problems(ledger: dict) -> list[str]:
    """One line per seam or floor a run of ``ledger`` lost."""
    problems = []
    for run in ledger["runs"]:
        name = f"{run['workload']} (trace {run['trace']})"
        for seam in run["missing_seams"]:
            problems.append(f"{name}: seam {seam} does not resolve under src/")
        if run["trace"] and not run["per_layer"][EXPERT_CALLS]["value"]:
            problems.append(f"{name}: {EXPERT_CALLS} is 0 on a traced run")
        if run["trace"] and run["workload"] == "decode_hot":
            share = run["per_layer"][MEMO_HIT_SHARE]["value"]
            if share < DECODE_MEMO_FLOOR:
                problems.append(
                    f"{name}: {MEMO_HIT_SHARE} {share:.3f} is below {DECODE_MEMO_FLOOR}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ledger", type=Path, help="JSON written by bench/run.py --out")
    args = parser.parse_args(argv)
    problems = ledger_problems(json.loads(args.ledger.read_text()))
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
