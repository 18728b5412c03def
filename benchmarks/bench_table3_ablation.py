"""Table III: speedup breakdown of the three HybriMoE techniques.

Runs the component ablation (Qwen2, 25% cache, prefill + decode) and
claims the paper's qualitative findings: every component row is at
least neutral versus the kTransformers-like baseline, scheduling is the
main prefill lever, and the full system delivers the largest decode
gain categories. Claims-only, one size (``harness.BENCH_SCALE``).
"""

import harness

from repro.experiments.figures import table3_ablation
from repro.experiments.reporting import format_table

#: (config, column) -> the speedup it must exceed.
FLOORS = {
    # Scheduling is the dominant prefill technique.
    ("baseline+scheduling", "prefill_speedup"): 1.1,
    # Every decode component is at least neutral.
    ("baseline+scheduling", "decode_speedup"): 0.95,
    ("baseline+prefetching", "decode_speedup"): 0.95,
    ("baseline+caching", "decode_speedup"): 0.95,
    # The full system improves both stages over the baseline.
    ("all", "prefill_speedup"): 1.1,
    ("all", "decode_speedup"): 1.1,
}


def run(smoke: bool) -> tuple[dict, list[str]]:
    rows = table3_ablation(
        model_name="qwen2",
        cache_ratio=0.25,
        scale=harness.BENCH_SCALE,
        seed=harness.BENCH_SEED,
    )
    by_config = {r["config"]: r for r in rows}
    failures = [
        f"{config}: {column} {by_config[config][column]:.3f}x is not > {floor}x"
        for (config, column), floor in FLOORS.items()
        if not by_config[config][column] > floor
    ]
    return {"rows": rows}, failures


def render(payload: dict) -> str:
    table = format_table(
        payload["rows"], title="Table III — technique breakdown (Qwen2, 25% cache)"
    )
    return (
        f"{table}\n\nPaper reference: +sched 1.26x/1.46x, +prefetch 1.06x/1.15x, "
        "+caching -/1.38x, all 1.31x/1.86x (prefill/decode)"
    )


BENCH = harness.Bench(name="table3_ablation", run=run, render=render, has_smoke=False)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
