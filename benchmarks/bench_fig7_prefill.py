"""Fig. 7: prefill TTFT across models, cache ratios and input lengths.

Regenerates the full 3-models x 3-ratios x 4-buckets x 4-frameworks
grid and claims the paper's headline: HybriMoE speeds up prefill vs
kTransformers on average, and llama.cpp's static mapping collapses as
prompts grow. Claims-only, one size (``harness.BENCH_SCALE``).
"""

import harness

from repro.experiments.figures import fig7_prefill
from repro.experiments.reporting import (
    add_speedup_column,
    format_table,
    geometric_mean,
)


def run(smoke: bool) -> tuple[dict, list[str]]:
    rows = add_speedup_column(
        fig7_prefill(scale=harness.BENCH_SCALE, seed=harness.BENCH_SEED),
        "ttft_s",
        group_columns=("model", "cache_ratio", "bucket"),
    )
    average = geometric_mean(
        [r["speedup"] for r in rows if r["strategy"] == "hybrimoe"]
    )
    failures = []
    # Headline shape: HybriMoE wins on average...
    if not average > 1.15:
        failures.append(
            f"hybrimoe prefill speedup vs ktransformers: geomean {average:.3f}x "
            f"is not > 1.15x"
        )
    # ...and llama.cpp is the clear prefill loser at long prompts.
    llamacpp = max(
        r["speedup"]
        for r in rows
        if r["strategy"] == "llamacpp" and r["bucket"] >= 512
    )
    if not llamacpp < 0.8:
        failures.append(
            f"llamacpp reaches {llamacpp:.3f}x of ktransformers on a >= 512-token "
            f"prefill, not < 0.8x"
        )
    return {"rows": rows, "hybrimoe_geomean_speedup": average}, failures


def render(payload: dict) -> str:
    table = format_table(
        payload["rows"],
        columns=["model", "cache_ratio", "bucket", "strategy", "ttft_s", "speedup"],
        title="Fig. 7 — prefill TTFT (speedup vs kTransformers)",
    )
    return (
        f"{table}\n\nHybriMoE prefill speedup vs kTransformers: geomean "
        f"{payload['hybrimoe_geomean_speedup']:.2f}x (paper: 1.33x)"
    )


BENCH = harness.Bench(name="fig7_prefill", run=run, render=render, has_smoke=False)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
