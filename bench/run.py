#!/usr/bin/env python3
"""The perf ledger: four workloads, two clocks, every layer.

Driver form (one workload, one process, contract line last)::

    python3 bench/run.py --workload decode_hot --seed 3 --seconds 20 --trace 0

Ledger form (all four workloads, each in a fresh child, one after
another, untraced then traced)::

    python3 bench/run.py [--seed N] [--smoke] [--out F] [--repeat-check]

``host_*`` metrics are wall time of this simulator; ``sim_*`` metrics
are time on the modelled hardware and repeat exactly for a fixed seed.
See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: with two threads on this
# 2-core box a 512-token prefill swings between 78 ms and ~700 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench: no program to measure: {SRC}/repro does not exist")
sys.path[:0] = [SRC, HERE]

from benchlib import layers  # noqa: E402  (needs the path set above)
from benchlib.tracer import ROOT, Tracer  # noqa: E402
from benchlib.workloads import FULL, SMOKE, WORKLOADS, summarise  # noqa: E402

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, repro; print(time.perf_counter() - t)"
)
#: Set-up repetitions behind ``setup_s`` (passes count, the rest is topped up).
SETUP_SAMPLES = 5


def import_seconds(samples: int) -> float:
    """Median time a fresh interpreter needs to import numpy + repro."""
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def quiet_wall(walls: list[list[float]]) -> float:
    """Wall of one pass with every chunk taken at its fastest repetition.

    The sandbox alternates, seconds at a time, between a quiet mode and
    one ~35% slower (a neighbour on the core). Chunk ``j`` does the same
    work on every pass, so the per-chunk minimum over passes is the
    pass as the quiet mode would have run it; medians of whole passes
    move by whatever share of the run the neighbour happened to take.
    """
    return sum(min(samples) for samples in walls)


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of a host timing, for the report."""
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


@dataclass
class Measurement:
    """What the passes of one run produced."""

    check: object = None  # () -> bool, the bit-exact prefill check
    operations: int = 0  # decode steps + prompts + requests per pass
    tokens: int = 0  # tokens per pass counted by host_tokens_per_s
    setups: list = field(default_factory=list)
    generate_s: list = field(default_factory=list)
    #: Per mode (traced or not), per chunk index, one wall per pass.
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    pass_walls: dict = field(default_factory=lambda: {False: [], True: []})
    sims: list = field(default_factory=list)
    #: (wall, span aggregate, hook counters) of the fastest traced pass.
    best_traced: tuple | None = None


def run_pass(workload, sizes, seed, m: Measurement, tracer, traced, trace_out) -> None:
    """Set up and run one pass into ``m``.

    Its own function so that nothing of the pass (engines, outputs)
    outlives it: one pass alive at a time keeps peak RSS the program's.
    """
    clock = time.perf_counter
    started = clock()
    prepared = workload.prepare(seed, sizes)
    m.setups.append(clock() - started)
    m.generate_s.append(prepared.generate_s)
    m.check, m.operations = prepared.check, prepared.operations
    m.tokens = sum(chunk.tokens for chunk in prepared.chunks)
    counters = layers.new_counters()
    if traced:
        tracer.install(layers.SEAMS, layers.make_hooks(tracer, counters))
    walls = m.walls[traced]
    walls.extend([] for _ in range(len(prepared.chunks) - len(walls)))
    outputs = []
    try:
        for samples, chunk in zip(walls, prepared.chunks):
            run = tracer.wrap(ROOT, chunk.run) if traced else chunk.run
            started = clock()
            outputs.append(run())
            samples.append(clock() - started)
    finally:
        tracer.restore()
    total = sum(samples[-1] for samples in walls)
    m.pass_walls[traced].append(total)
    m.sims.append(summarise(workload, prepared, outputs, sizes))
    if traced:
        if m.best_traced is None or total < m.best_traced[0]:
            m.best_traced = (total, tracer.aggregate(), counters)
            if trace_out:
                tracer.write_chrome_trace(trace_out, workload.name)
        tracer.reset()


def measure(workload, sizes, seed, seconds, trace, min_untraced, tracer, trace_out):
    """Run passes until ``seconds`` elapsed; traced runs alternate modes."""
    m = Measurement()
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        gc.collect()
        run_pass(workload, sizes, seed, m, tracer, traced, trace_out)
        if trace:
            traced = not traced
        enough = len(m.pass_walls[False]) >= min_untraced and (
            not trace or m.pass_walls[True]
        )
        if enough and time.perf_counter() >= deadline:
            return m


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    trace_out: str | None = None,
) -> dict:
    """Measure one workload in this process; returns the full report."""
    workload = WORKLOADS[name]
    sizes = SMOKE if smoke else FULL
    imported = import_seconds(1 if smoke else 3)
    if not smoke:
        # Warm-up repetition, discarded: lazy imports, numpy first calls.
        for chunk in workload.prepare(seed, SMOKE).chunks:
            chunk.run()
    tracer = Tracer()
    min_untraced = 1 if smoke or trace else 2
    m = measure(workload, sizes, seed, seconds, trace, min_untraced, tracer, trace_out)
    setups = m.setups
    while len(setups) < (1 if smoke else SETUP_SAMPLES):
        gc.collect()
        started = time.perf_counter()
        workload.prepare(seed, sizes)
        setups.append(time.perf_counter() - started)
    gc.collect()

    sim = m.sims[0]
    bit_exact = m.check()
    deterministic = all(s["fingerprint"] == sim["fingerprint"] for s in m.sims)
    failed = sim["failed"] + (0 if bit_exact else 1)
    attempted, tokens = m.operations, m.tokens
    host_wall = quiet_wall(m.walls[False])

    end_to_end = {
        "setup_s": imported + statistics.median(setups),
        "host_tokens_per_s": tokens / host_wall,
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_tokens_per_s": sim["tokens_per_s"],
        "sim_latency_ms": sim["latency_ms"],
        "sim_hit_rate": sim["hit_rate"],
    }
    per_layer = shares_sum = None
    if trace:
        _, spans, traced_counters = m.best_traced
        extra = {
            "generate_s": statistics.median(m.generate_s),
            "trace_overhead_share": quiet_wall(m.walls[True]) / host_wall - 1.0,
            "host_requests_per_s": sim.get("admits", 0) / host_wall,
            "failed_share": failed / attempted,
        }
        per_layer = layers.per_layer_metrics(
            sim, spans, traced_counters, extra, tracer.missing
        )
        shares_sum = sum(per_layer[f"{layer}.share"] for layer in (*layers.LAYERS, "other"))
    correct = failed == 0 and deterministic and (
        shares_sum is None or abs(shares_sum - 1.0) <= 0.02
    )

    def described(values, catalogue):
        return {
            metric: {"value": values[metric], "unit": unit, "better": better}
            for metric, unit, better in catalogue
        }

    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "operations_complete": sim["failed"] == 0,
            "prefill_bit_exact": bit_exact,
            "hits_plus_misses_equal_accesses": sim["accesses_consistent"],
            "passes_identical": deterministic,
            "layer_shares_sum": shares_sum,
        },
        "end_to_end": described(end_to_end, layers.END_TO_END),
        "per_layer": described(per_layer, layers.PER_LAYER) if trace else None,
        "sim_fingerprint": sim["fingerprint"],
        "host": {
            "passes_untraced": len(m.pass_walls[False]),
            "passes_traced": len(m.pass_walls[True]),
            "chunks_per_pass": len(m.walls[False]),
            "tokens_per_pass": tokens,
            "pass_wall_s": spread(m.pass_walls[False]),
            "quiet_pass_wall_s": host_wall,
            "setup_build_s": spread(setups),
            "import_s": imported,
        },
        "missing_seams": tracer.missing,
    }


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "commit": commit or "unknown",
    }


def print_report(report: dict) -> None:
    host = report["host"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"passes {host['passes_untraced']}+{host['passes_traced']} traced  "
        f"chunks/pass {host['chunks_per_pass']}"
    )
    for dotted in report["missing_seams"]:
        print(f"  warning: seam {dotted} no longer exists; its metrics are null")
    for name, metric in {**report["end_to_end"], **(report["per_layer"] or {})}.items():
        arrow = "^" if metric["better"] == "higher" else "v"
        value = "null" if metric["value"] is None else format(metric["value"], ".6g")
        print(f"  {name:<42} {value:>14} {metric['unit']:<6} {arrow}")
    wall = host["pass_wall_s"]
    print(
        f"  host pass wall: quiet {host['quiet_pass_wall_s']:.4f} s, median {wall['median']:.4f} s "
        f"[q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}], n={wall['n']}"
    )
    print(
        f"  failed_share {report['failed'] / report['attempted']:.6g} "
        f"({report['failed']} failed / {report['attempted']} attempted)"
    )
    print(f"  sim_fingerprint {report['sim_fingerprint']}")
    print(f"  checks {report['checks']}")


def contract_line(report: dict) -> str:
    """The driver's line: per-layer metrics when traced, else end-to-end."""
    metrics = report["per_layer"] if report["trace"] else report["end_to_end"]
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                # The line carries numbers only: a vanished seam reads 0.
                name: {"value": metric["value"] or 0.0, "unit": metric["unit"]}
                for name, metric in metrics.items()
            },
        }
    )


# ----------------------------------------------------------------------
# ledger form: every workload in its own child, one after another
# ----------------------------------------------------------------------
def benchmark_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool,
              trace_out: str | None) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--emit-report",
    ]
    if smoke:
        command.append("--smoke")
    if trace_out and trace:
        command += ["--trace-out", f"{trace_out}.{name}.json"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    report = None
    for line in lines[:-1]:
        if line.startswith("report: "):
            report = json.loads(line[len("report: "):])
        else:
            print(line)
    sys.stderr.write(done.stderr)
    if report is None:
        sys.exit(f"bench: workload {name} produced no report (exit {done.returncode})")
    return report


def run_ledger(seed: int, seconds: float, smoke: bool, traces=(0, 1),
               trace_out: str | None = None) -> dict:
    reports = [
        run_child(name, seed, seconds, trace, smoke, trace_out)
        for name in WORKLOADS
        for trace in traces
    ]
    return {"env": environment(), "seed": seed, "smoke": smoke, "runs": reports}


def repeat_check(seed: int, seconds: float, smoke: bool) -> bool:
    """Two full untraced sets; relative difference beside each bound."""
    bounds = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    first, second = (run_ledger(seed, seconds, smoke, traces=(0,)) for _ in range(2))
    print(f"{'workload':<18}{'metric':<22}{'first':>14}{'second':>14}{'diff':>9}{'bound':>8}")
    within = True
    for a, b in zip(first["runs"], second["runs"]):
        same = a["sim_fingerprint"] == b["sim_fingerprint"]
        within &= same
        print(f"{a['workload']:<18}sim_fingerprint {'identical' if same else 'DIFFERENT'}")
        for name, metric in a["end_to_end"].items():
            x, y = metric["value"], b["end_to_end"][name]["value"]
            diff = abs(y - x) / abs(x)
            # Simulated time is deterministic: any movement is a change
            # of behaviour, whatever the bound says.
            limit = 0.0 if name.startswith("sim_") else bounds[name]
            ok = diff <= limit
            within &= ok
            print(
                f"{a['workload']:<18}{name:<22}{x:>14.6g}{y:>14.6g}{diff:>9.2%}{limit:>8.0%}"
                f"{'' if ok else '  EXCEEDS'}"
            )
    return within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds")
    parser.add_argument("--out", help="write the full ledger JSON here")
    parser.add_argument("--trace-out", help="write Chrome trace-event JSON here")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--emit-report", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(benchmark_spec()["run_seconds"])

    if args.workload:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
        report = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke, args.trace_out
        )
        print_report(report)
        if args.emit_report:
            print("report: " + json.dumps(report))
        print(contract_line(report))
        return 0 if report["correct"] else 1

    if args.repeat_check:
        return 0 if repeat_check(args.seed, seconds, args.smoke) else 1
    traces = (0, 1) if args.trace is None else (args.trace,)
    ledger = run_ledger(args.seed, seconds, args.smoke, traces, args.trace_out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1)
    print(f"env {ledger['env']}")
    return 0 if all(run["correct"] for run in ledger["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
