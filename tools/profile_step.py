"""Profile the step pipeline and print the hot spots.

Runs a canned decode stream — or, with ``--stage prefill``, a series of
cold full-prompt prefills — through the engine under :mod:`cProfile`
and prints the top cumulative-time functions: the first stop when a
step-latency regression shows up in the perf ledger (``bench/run.py``;
see ``docs/BENCHMARKS.md``). The default decode scenario is the
ledger's ``decode_hot`` shape, so the profile is of the steps its
``host_tokens_per_s`` row times; ``--stage prefill --cache-ratio 0.5``
is the ledger's ``prefill_long`` shape (every expert activated, the
planner's widest searches).

Usage::

    python tools/profile_step.py                       # top 20
    python tools/profile_step.py --steps 128 --top 40
    python tools/profile_step.py --sort tottime
    python tools/profile_step.py --stage prefill --steps 8 --cache-ratio 0.5 --seed 3
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise, set before numpy
# loads (as bench/run.py does): the ledger measures one thread, and two
# threads on a 2-core box move the profile from the pipeline's index
# traffic to `expert_forward` / `gate_scores`.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.factory import make_engine  # noqa: E402
from repro.rng import derive_rng  # noqa: E402

STAGES = ("decode", "prefill")


def profile_stage(
    stage: str,
    model: str,
    strategy: str,
    num_layers: int,
    cache_ratio: float,
    steps: int,
    seed: int,
    prompt_len: int = 512,
) -> tuple[cProfile.Profile, float]:
    """Profile ``steps`` decode steps, or ``steps`` cold prefills.

    A prefill step is one ``prompt_len``-token prompt through a fresh
    engine (cold cache, cold plan memo), built outside the profiled
    region.
    """

    def build():
        return make_engine(
            model=model,
            strategy=strategy,
            cache_ratio=cache_ratio,
            num_layers=num_layers,
            seed=seed,
        )

    if stage == "decode":
        engine = build()

        def run():
            engine.decode_only(steps, warm_prompt_len=8)

    elif stage == "prefill":
        engines = [build() for _ in range(steps)]
        prompts = derive_rng(seed, "profile-step", "prefill").integers(
            0, engines[0].model.vocab_size, size=(steps, prompt_len)
        )

        def run():
            for engine, prompt in zip(engines, prompts):
                engine.generate(prompt, decode_steps=0)

    else:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run()
    profiler.disable()
    return profiler, time.perf_counter() - start


def blas_threads() -> dict[str, str]:
    """The BLAS thread-count variables this process runs under."""
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def _top_rows(profiler: cProfile.Profile, top: int, sort: str) -> list[dict]:
    """The hottest ``top`` functions as plain rows (for the report)."""
    stats = pstats.Stats(profiler)
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # fcn_list is set by sort_stats
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    return rows


def profile_report(
    steps: int = 5,
    model: str = "deepseek",
    strategy: str = "hybrimoe",
    num_layers: int = 8,
    cache_ratio: float = 0.75,
    seed: int = 0,
    top: int = 20,
    sort: str = "cumulative",
    stage: str = "decode",
    prompt_len: int = 512,
) -> dict:
    """Profile one stream; return a structured report.

    The wall time, derived step rate (prompts/s for
    ``stage="prefill"``) and the hottest ``top`` functions — the
    machine-readable counterpart of ``main``'s printed output, used by
    the smoke test and available to tooling.
    """
    profiler, elapsed = profile_stage(
        stage,
        model=model,
        strategy=strategy,
        num_layers=num_layers,
        cache_ratio=cache_ratio,
        steps=steps,
        seed=seed,
        prompt_len=prompt_len,
    )
    return {
        "blas_threads": blas_threads(),
        "stage": stage,
        "steps": steps,
        "model": model,
        "strategy": strategy,
        "elapsed_s": elapsed,
        "steps_per_s": steps / elapsed if elapsed > 0 else float("inf"),
        "top": _top_rows(profiler, top, sort),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--stage",
        choices=STAGES,
        default="decode",
        help="what one step is: a decode step, or one cold --prompt-len prefill",
    )
    parser.add_argument(
        "--prompt-len", type=int, default=512, help="tokens per prefill prompt"
    )
    parser.add_argument("--model", default="deepseek")
    parser.add_argument("--strategy", default="hybrimoe")
    parser.add_argument("--num-layers", type=int, default=8)
    parser.add_argument("--cache-ratio", type=float, default=0.75)
    parser.add_argument(
        "--steps", type=int, default=256, help="decode steps (or prefill prompts)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=20, help="rows to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        help="pstats sort key (cumulative, tottime, ncalls, ...)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also dump raw stats here"
    )
    args = parser.parse_args(argv)

    profiler, elapsed = profile_stage(
        args.stage,
        model=args.model,
        strategy=args.strategy,
        num_layers=args.num_layers,
        cache_ratio=args.cache_ratio,
        steps=args.steps,
        seed=args.seed,
        prompt_len=args.prompt_len,
    )
    what = (
        "decode steps"
        if args.stage == "decode"
        else f"{args.prompt_len}-token prefills"
    )
    print(
        f"{args.steps} {what} of "
        f"{args.model} L{args.num_layers} r{args.cache_ratio} in "
        f"{elapsed:.3f}s ({args.steps / elapsed:.1f} steps/s)"
    )
    print("BLAS threads: " + " ".join(f"{k}={v}" for k, v in blas_threads().items()))
    stats = pstats.Stats(profiler)
    if args.out is not None:
        stats.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
