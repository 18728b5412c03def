#!/usr/bin/env python3
"""Which ``src/`` lines the CI artifacts run, and which only the tests run.

Runs every artifact CI runs (``ARTIFACTS``: the paper claims, each
``benchmarks/bench_*.py`` smoke, the perf-ledger smoke, the chaos
harness, the step-profiler smokes, the CLI commands and sweep, the API
doctest and the examples), then tier-1 alone, each command under a line
tracer. Every Python process they start is traced too: a generated
``sitecustomize`` on ``PYTHONPATH`` starts the tracer at interpreter
start-up and writes the process's lines when it exits. The tracer is
``sys.settrace`` (stdlib only) and records only lines of files under
``src/``.

Each executable ``src/`` line (a line of some compiled code object)
is then one of:

- ``artifact``: ran under some artifact;
- ``tests only``: ran under tier-1 and under no artifact;
- ``neither``: ran under neither.

Error paths and ``if TYPE_CHECKING:`` imports are counted apart
(``raise`` / ``typing`` columns). An error path is a block that ends in
a ``raise``: the raise, the lines before it that build its message, and
the ``except`` line of a handler that re-raises. A tests-only error
path is a check, kept on purpose. The report is one row per file, the
totals, then every function with a non-error tests-only line.

Usage::

    python tools/artifact_coverage.py [--out coverage.json]

A whole run takes ~10 minutes on a 2-core box (the tracer about
doubles the time of Python code). Artifact exit codes are printed, never
gated: each artifact's own CI job gates it.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import types
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Every artifact CI runs, as ``python`` argument lists run from the
#: repo root; ``{work}`` is a scratch directory. The benchmarks are
#: globbed in :func:`artifacts`.
ARTIFACTS = [
    ["bench/run.py", "--smoke", "--out", "{work}/ledger.json"],
    ["tools/chaos.py", "--campaigns", "2", "--num-requests", "24"],
    ["tools/profile_step.py", "--workload", "prefill_long", "--setup", "--smoke", "--top", "5"],
    ["tools/profile_step.py", "--workload", "serve_poisson", "--memory", "--smoke", "--top", "5"],
    ["-m", "repro.cli", "info"],
    ["-m", "repro.cli", "scenarios", "list"],
    *[
        ["-m", "repro.cli", "sweep", "--scenarios", "chat-multiturn,edge-decode",
         "--strategies", "hybrimoe,ondemand", "--requests", "2", "--steps", "2",
         "--out", "{work}/sweep-smoke"]
    ] * 2,  # populate, then resume
    # Every other CLI command once, at four layers.
    ["-m", "repro.cli", "run", "--num-layers", "4", "--decode-steps", "4",
     "--cpu-cache-capacity", "8"],
    ["-m", "repro.cli", "serve", "--arrival-trace", "0,0.01,0.02,0.03,0.04,0.05,0.06,0.07",
     "--num-layers", "4", "--decode-steps", "4", "--num-gpus", "2", "--cpu-cache-capacity", "128",
     "--priority-mix", "interactive=0.5,batch=0.5", "--prefill-chunk", "16", "--preempt",
     "--request-timeout", "0.3"],
    ["-m", "repro.cli", "serve", "--replicas", "2", "--num-requests", "12",
     "--arrival-rate", "200", "--num-layers", "4", "--decode-steps", "4", "--shed", "3:1",
     "--fault-spec", "crash:1:0.02,gpu_straggler:0:0:0.3:2.0", "--request-timeout", "0.05",
     "--max-retries", "1"],
    ["-m", "repro.cli", "compare", "--num-layers", "4", "--decode-steps", "4"],
    ["-m", "repro.cli", "figure", "fig3e"],
    ["-m", "doctest", "docs/API.md"],
]
#: Tier-1, without ``-x``: a test that fails under the tracer's slowdown
#: must not hide the lines of the tests after it.
TESTS = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]

#: The ``sitecustomize`` each traced command's interpreters import.
HOOK = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_artifact_coverage", {tool!r})
_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tool)
_tool.start({out!r}, {src!r})
"""


def artifacts() -> list[list[str]]:
    """The argument lists of every artifact, benchmarks first."""
    benches = []
    for path in sorted(glob.glob(str(REPO_ROOT / "benchmarks" / "bench_*.py"))):
        name = os.path.relpath(path, REPO_ROOT)
        if name.endswith("bench_paper.py"):
            benches.append([name, "--check"])
        else:
            stem = Path(path).stem
            benches.append([name, "--smoke", "--check", "--out", f"{{work}}/{stem}.json"])
    examples = sorted(glob.glob(str(REPO_ROOT / "examples" / "*.py")))
    return benches + ARTIFACTS + [[os.path.relpath(p, REPO_ROOT)] for p in examples]


# ----------------------------------------------------------------------
# the tracer, started in each traced interpreter by the generated hook
# ----------------------------------------------------------------------
def start(out_dir: str, src: str) -> None:
    """Record every ``src`` line this process runs; write them at exit."""
    root = os.path.join(os.path.realpath(src), "")
    hits: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def tracer_for(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(root):
            return None
        add = hits.setdefault(os.path.relpath(path, root), set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            tracer = tracers[filename] = tracer_for(filename)
            return tracer

    def dump() -> None:
        sys.settrace(None)
        name = os.path.join(out_dir, f"{os.getpid()}-{time.monotonic_ns()}")
        with open(name, "w", encoding="utf-8") as handle:
            json.dump({path: sorted(lines) for path, lines in hits.items()}, handle)
        os.replace(name, f"{name}.json")

    def terminated(signum, frame) -> None:
        dump()
        os._exit(128 + signum)

    def after_fork() -> None:
        # A multiprocessing worker leaves through os._exit, past atexit,
        # or on Pool.terminate's SIGTERM: write its lines on both paths.
        util = sys.modules.get("multiprocessing.util")
        if util is not None:
            util.register_after_fork(dump, lambda fn: util.Finalize(None, fn, exitpriority=0))
            signal.signal(signal.SIGTERM, terminated)

    atexit.register(dump)
    os.register_at_fork(after_in_child=after_fork)
    threading.settrace(call)
    sys.settrace(call)


# ----------------------------------------------------------------------
# running the commands
# ----------------------------------------------------------------------
def traced_run(args: list[str], work: Path, index: int) -> tuple[int, float, dict]:
    """Run ``python args`` traced; ``(exit code, wall s, {file: lines})``."""
    hook, out = work / f"hook{index}", work / f"lines{index}"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(
        HOOK.format(tool=str(Path(__file__).resolve()), out=str(out), src=str(SRC)),
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]))
    command = [sys.executable] + [arg.replace("{work}", str(work)) for arg in args]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=REPO_ROOT, env=env, capture_output=True, text=True,
                          timeout=1800)
    wall = time.perf_counter() - started
    if done.returncode:
        sys.stderr.write((done.stdout + done.stderr)[-2000:])
    lines: dict[str, set[int]] = {}
    for dumped in out.glob("*.json"):
        merge(lines, json.loads(dumped.read_text(encoding="utf-8")))
    return done.returncode, wall, lines


def merge(into: dict[str, set[int]], more: dict) -> None:
    for path, lines in more.items():
        into.setdefault(path, set()).update(lines)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def executable_lines(code: types.CodeType) -> set[int]:
    """Lines of ``code`` and of every code object nested in it."""
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def classify(source: str) -> tuple[dict[int, str], dict[int, str]]:
    """``(kind per line, function per line)`` of one module.

    ``kind`` is ``"raise"`` for the lines of a block that ends in a
    ``raise`` (and the ``except`` line above such a block) and
    ``"typing"`` for those of an ``if TYPE_CHECKING:`` body; the
    function is the innermost ``def`` (dotted through classes) whose body
    holds the line; its ``def`` line runs with the enclosing scope.
    """
    tree = ast.parse(source)
    kinds: dict[int, str] = {}
    owners: dict[int, str] = {}

    def span(node) -> range:
        return range(node.lineno, node.end_lineno + 1)

    def visit(node, scope: str) -> None:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            for statement in node.body:
                kinds.update(dict.fromkeys(span(statement), "typing"))
        if isinstance(node, ast.ExceptHandler) and isinstance(node.body[-1], ast.Raise):
            kinds[node.lineno] = "raise"
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if isinstance(block, list) and block and isinstance(block[-1], ast.Raise):
                for statement in block:
                    kinds.update(dict.fromkeys(span(statement), "raise"))
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if not isinstance(child, ast.ClassDef):
                    body = range(child.body[0].lineno, child.end_lineno + 1)
                    owners.update(dict.fromkeys(body, inner))
            visit(child, inner)

    visit(tree, "")
    return kinds, owners


def report(artifact: dict[str, set[int]], tests: dict[str, set[int]]) -> dict:
    """Per-file counts, totals and the non-error tests-only functions.

    ``uncalled`` lists the functions of ``functions`` no artifact calls.
    """
    files, functions = {}, Counter()
    total, called = Counter(), set()
    for path in sorted(SRC.rglob("*.py")):
        name = os.path.relpath(path, SRC)
        source = path.read_text(encoding="utf-8")
        lines = executable_lines(compile(source, str(path), "exec"))
        kinds, owners = classify(source)
        ran, tested = artifact.get(name, set()), tests.get(name, set())
        row = Counter()
        only = []
        for line in lines:
            kind = kinds.get(line)
            row["executable"] += 1
            if kind:
                row[kind] += 1
            if line in ran:
                row["artifact"] += 1
                called.add(f"{name}::{owners.get(line, '<module>')}")
            elif line in tested:
                row["tests_only_raise" if kind == "raise" else "tests_only"] += 1
                if kind != "raise":
                    only.append(line)
                    functions[f"{name}::{owners.get(line, '<module>')}"] += 1
            else:
                row["neither"] += 1
        files[name] = {**row, "tests_only_lines": sorted(only)}
        total.update(row)
    return {
        "files": files,
        "total": dict(total),
        "functions": dict(functions.most_common()),
        "uncalled": sorted(set(functions) - called),
    }


COLUMNS = ("executable", "artifact", "tests_only", "tests_only_raise", "neither", "typing")


def format_report(result: dict) -> str:
    head = f"{'file':<40}" + "".join(f"{c:>17}" for c in COLUMNS)
    rows = [head]
    for name, row in result["files"].items():
        if row.get("tests_only") or row.get("tests_only_raise"):
            rows.append(f"{name:<40}" + "".join(f"{row.get(c, 0):>17}" for c in COLUMNS))
    total = result["total"]
    rows.append(f"{'total':<40}" + "".join(f"{total.get(c, 0):>17}" for c in COLUMNS))
    executable = total.get("executable", 0) or 1
    rows.append(
        "shares: artifact {:.1%}, tests only {:.1%} ({} not raise + {} raise), "
        "neither {:.1%}".format(
            total.get("artifact", 0) / executable,
            (total.get("tests_only", 0) + total.get("tests_only_raise", 0)) / executable,
            total.get("tests_only", 0), total.get("tests_only_raise", 0),
            total.get("neither", 0) / executable,
        )
    )
    rows.append("non-error tests-only lines by function (*: no artifact calls it):")
    rows += [
        f"  {count:>4}  {name}{' *' if name in result['uncalled'] else ''}"
        for name, count in result["functions"].items()
    ]
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args(argv)

    ran: dict[str, set[int]] = {}
    commands = artifacts() + [TESTS]
    with tempfile.TemporaryDirectory(prefix="artifact_coverage_") as work:
        for index, command in enumerate(commands):
            code, wall, lines = traced_run(command, Path(work), index)
            if command is not TESTS:
                merge(ran, lines)
            print(f"[{index + 1}/{len(commands)}] exit {code} {wall:6.1f} s  "
                  f"{' '.join(command)}", flush=True)
    result = report(ran, lines)  # the last command run is tier-1
    print(format_report(result))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
