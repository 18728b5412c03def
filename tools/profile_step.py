"""Profile one perf-ledger workload under cProfile and print the hot spots.

The first stop when a step-latency regression shows up in the perf
ledger (``bench/run.py``; see ``docs/BENCHMARKS.md``): the workloads
are the ledger's own, imported from ``bench/benchlib/workloads.py``, so
the profile is of exactly the chunks its ``host_tokens_per_s`` row
times. Set-up (``prepare``) runs outside that region; ``--setup``
profiles it instead, the in-process part of the ``setup_s`` row. For an
ad-hoc shape, profile the CLI: ``python -m cProfile -m repro.cli run ...``.

The report ends in a per-stage prefetch-yield block: prefetch windows
opened (layers of a stage the strategy prefetches in), impact-driven
``select`` calls, the decisions they returned and the prefetches
issued. It is counted by wrapping ``StepPipeline._issue_prefetches``
and ``ImpactDrivenPrefetcher.select`` from here, during the profiled
pass, so the two wrappers appear in the profile.

``--memory`` runs the same chunks under ``tracemalloc`` instead of
cProfile and prints the peak traced memory, the minor page faults the
chunks took (the ``ru_minflt`` delta, tracemalloc's own bookkeeping
included), the distinct weight sets behind the chunk engines and their
bytes (built in set-up, so outside the trace), the resource-ledger rows
the pass added (``len()`` over every timeline of each chunk engine's
clock, after minus before) and the allocation sites, by line, still
holding the most memory at the end of the pass: the attribution of the
ledger's ``host_peak_rss_mb`` row.

Usage::

    python tools/profile_step.py --workload decode_hot --smoke      # top 20 by cumulative time
    python tools/profile_step.py --workload prefill_long --setup     # where prepare() goes
    python tools/profile_step.py --workload serve_poisson --memory   # what the pass keeps, its faults
    python tools/profile_step.py --workload prefill_long --seed 3 --sort tottime --top 40 --out p.prof
"""

import argparse
import cProfile
import os
import pstats
import resource
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, set before numpy loads
# (as bench/run.py does): the ledger measures one thread, and two on a 2-core
# box move the profile from the pipeline's index traffic to `expert_forward`.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "bench")]

from benchlib.workloads import FULL, SMOKE, WORKLOADS  # noqa: E402

from repro.core.prefetch import ImpactDrivenPrefetcher  # noqa: E402
from repro.engine.pipeline import StepPipeline  # noqa: E402

STAGES = ("prefill", "decode")
YIELD_COLUMNS = ("windows", "select_calls", "decisions", "issued")


@contextmanager
def count_prefetch_yield():
    """Per-stage prefetch-yield counters, filled while the block runs."""
    counts = {stage: dict.fromkeys(YIELD_COLUMNS, 0) for stage in STAGES}
    issue, select = StepPipeline._issue_prefetches, ImpactDrivenPrefetcher.select
    open_rows = []  # the counter row of the window ``select`` runs in

    def counted_issue(pipeline, ctx, z):
        row = counts[ctx.stage]
        row["windows"] += ctx.stage in pipeline.strategy.prefetch_stages
        before = pipeline.runtime.prefetch_issued
        open_rows.append(row)
        try:
            issue(pipeline, ctx, z)
        finally:
            open_rows.pop()
        row["issued"] += pipeline.runtime.prefetch_issued - before

    def counted_select(prefetcher, *args, **kwargs):
        decisions = select(prefetcher, *args, **kwargs)
        open_rows[-1]["select_calls"] += 1
        open_rows[-1]["decisions"] += len(decisions)
        return decisions

    StepPipeline._issue_prefetches = counted_issue
    ImpactDrivenPrefetcher.select = counted_select
    try:
        yield counts
    finally:
        StepPipeline._issue_prefetches, ImpactDrivenPrefetcher.select = issue, select


def ledger_rows(engines) -> int:
    """Intervals held by every timeline of each distinct engine's clock."""
    total = 0
    for engine in {id(e): e for e in engines}.values():
        total += sum(len(timeline) for timeline in engine.runtime.clock.timelines())
    return total


def memory_report(workload: str, seed: int = 0, smoke: bool = False, top: int = 10) -> dict:
    """One pass of a ledger workload's chunks under ``tracemalloc``.

    Set-up runs untraced. Returns the peak traced MB (MiB, like the
    ledger's ``host_peak_rss_mb``), the minor page faults of the chunks,
    the distinct weight sets the chunk engines run on and their MB, the
    ledger rows the pass added and the ``top`` allocation sites by live
    size at the end of the pass.
    """
    prepared = WORKLOADS[workload].prepare(seed, SMOKE if smoke else FULL)
    engines = [chunk.engine for chunk in prepared.chunks]
    # One model per distinct weight set, to size the set through.
    models = {id(e.model.weight_set): e.model for e in engines}.values()
    rows_before = ledger_rows(engines)
    tracemalloc.start()
    try:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for chunk in prepared.chunks:
            chunk.run()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        peak = tracemalloc.get_traced_memory()[1]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    sites = [
        {"site": str(stat.traceback[0]), "size_kb": stat.size / 1024, "count": stat.count}
        for stat in snapshot.statistics("lineno")[:top]
    ]
    return {
        "workload": workload,
        "tokens": sum(chunk.tokens for chunk in prepared.chunks),
        "peak_traced_mb": peak / 2**20,
        "minor_faults": faults,
        "weight_sets": len(models),
        "weights_mb": sum(w.nbytes for m in models for w in m.weights()) / 2**20,
        "ledger_rows": ledger_rows(engines) - rows_before,
        "top": sites,
    }


def profile_workload(
    workload: str, seed: int, smoke: bool, setup: bool = False
) -> tuple[cProfile.Profile, float, int, dict]:
    """One pass of a ledger workload under the profiler.

    Returns ``(profile, seconds, tokens, prefetch yield per stage)``.
    The profiled (and timed) region is the pass's chunks, or with
    ``setup`` the ``prepare()`` that builds them.
    """
    prepare, sizes = WORKLOADS[workload].prepare, SMOKE if smoke else FULL
    profiler = cProfile.Profile()
    with count_prefetch_yield() as prefetch_yield:
        if setup:
            start = time.perf_counter()
            prepared = profiler.runcall(prepare, seed, sizes)
        else:
            prepared = prepare(seed, sizes)
            start = time.perf_counter()
            profiler.enable()
            for chunk in prepared.chunks:
                chunk.run()
            profiler.disable()
        elapsed = time.perf_counter() - start
    tokens = sum(chunk.tokens for chunk in prepared.chunks)
    return profiler, elapsed, tokens, prefetch_yield


def profile_report(
    workload: str,
    seed: int = 0,
    smoke: bool = False,
    top: int = 20,
    sort: str = "cumulative",
    setup: bool = False,
) -> dict:
    """Profile one pass; return the machine-readable counterpart of ``main``'s output."""
    profiler, elapsed, tokens, prefetch_yield = profile_workload(workload, seed, smoke, setup)
    stats = pstats.Stats(profiler).sort_stats(sort)
    rows = [
        {"function": "%s:%d(%s)" % func, "ncalls": stats.stats[func][1],
         "tottime_s": stats.stats[func][2], "cumtime_s": stats.stats[func][3]}
        for func in stats.fcn_list[:top]  # fcn_list is set by sort_stats
    ]
    return {
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workload": workload,
        "region": "setup" if setup else "chunks",
        "tokens": tokens,
        "elapsed_s": elapsed,
        "tokens_per_s": tokens / elapsed,
        "top": rows,
        "prefetch_yield": prefetch_yield,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="the ledger's smoke sizes")
    region = parser.add_mutually_exclusive_group()
    region.add_argument("--setup", action="store_true", help="profile prepare(), not the chunks")
    region.add_argument(
        "--memory", action="store_true", help="trace the chunks' allocations, not their time"
    )
    parser.add_argument("--top", type=int, default=20, help="rows to print")
    parser.add_argument("--sort", default="cumulative", help="pstats sort key (tottime, ncalls, ...)")
    parser.add_argument("--out", type=Path, default=None, help="also dump raw stats here")
    args = parser.parse_args(argv)

    blas = "BLAS threads: " + " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS)
    if args.memory:
        report = memory_report(args.workload, args.seed, args.smoke, args.top)
        print(f"{args.workload}: {report['tokens']} tokens, "
              f"peak traced {report['peak_traced_mb']:.2f} MB over the chunks")
        print(blas)
        print(f"resource-ledger rows added: {report['ledger_rows']}")
        print(f"weight sets behind the engines: {report['weight_sets']}, "
              f"{report['weights_mb']:.2f} MB; minor page faults: {report['minor_faults']}")
        print(f"top allocation sites, live at the end of the pass\n{'KiB':>10}{'blocks':>10}  site")
        for row in report["top"]:
            print(f"{row['size_kb']:>10.1f}{row['count']:>10}  {row['site']}")
        return 0
    profiler, elapsed, tokens, prefetch_yield = profile_workload(
        args.workload, args.seed, args.smoke, args.setup
    )
    if args.setup:
        print(f"{args.workload}: set-up for {tokens} tokens in {elapsed:.3f}s")
    else:
        rate = tokens / elapsed
        print(f"{args.workload}: {tokens} tokens in {elapsed:.3f}s ({rate:.1f} tokens/s)")
    print(blas)
    stats = pstats.Stats(profiler)
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    stats.sort_stats(args.sort).print_stats(args.top)
    print("prefetch yield  " + "".join(f"{column:>14}" for column in YIELD_COLUMNS))
    for stage, row in prefetch_yield.items():
        print(f"  {stage:<14}" + "".join(f"{row[column]:>14}" for column in YIELD_COLUMNS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
