"""Fig. 9: MRS vs LRU cache hit rate across cached-expert percentages.

Regenerates the cache-policy comparison via trace replay and claims
the paper's findings: MRS beats LRU at every capacity, with the largest
gap at small caches and a narrowing gap as capacity grows. Claims-only,
one size (``harness.BENCH_SCALE``).
"""

import harness
import numpy as np

from repro.experiments.figures import fig9_cache_hit_rate
from repro.experiments.reporting import format_table


def _gaps(rows: list[dict]) -> dict[tuple[str, float], float]:
    """MRS minus LRU hit rate per (model, cached percentage)."""
    rate = {(r["model"], r["cached_percent"], r["policy"]): r["hit_rate"] for r in rows}
    return {
        (model, pct): rate[(model, pct, "mrs")] - rate[(model, pct, "lru")]
        for model, pct in sorted({key[:2] for key in rate})
    }


def run(smoke: bool) -> tuple[dict, list[str]]:
    rows = fig9_cache_hit_rate(scale=harness.BENCH_SCALE, seed=harness.BENCH_SEED)
    gaps = _gaps(rows)
    models = sorted({model for model, _ in gaps})
    percentages = sorted({pct for _, pct in gaps})
    failures = []
    # MRS wins on average per model, most clearly at small capacities.
    for model in models:
        low = gaps[(model, percentages[0])]
        if not low > -0.02:
            failures.append(
                f"{model}: MRS should not lose at small capacity "
                f"(MRS-LRU = {low * 100:+.1f} pts, not > -2)"
            )
    mean_low = float(np.mean([gaps[(m, percentages[0])] for m in models]))
    mean_high = float(np.mean([gaps[(m, percentages[-1])] for m in models]))
    if not mean_low > 0.0:
        failures.append(
            f"mean MRS-LRU gap at the smallest cache is {mean_low * 100:+.1f} pts, not > 0"
        )
    # The gap narrows as capacity grows (paper §VI-D).
    if not mean_high <= mean_low + 0.02:
        failures.append(
            f"mean MRS-LRU gap grows with capacity: {mean_high * 100:+.1f} pts at "
            f"the largest cache vs {mean_low * 100:+.1f} at the smallest (+2 allowed)"
        )
    return {"rows": rows}, failures


def render(payload: dict) -> str:
    table = format_table(
        payload["rows"], title="Fig. 9 — cache hit rate, MRS vs LRU (decode accesses)"
    )
    gap_lines = [
        f"  {model} @ {pct:.0%}: MRS-LRU = {gap * 100:+.1f} pts"
        for (model, pct), gap in _gaps(payload["rows"]).items()
    ]
    return table + "\n\nGaps:\n" + "\n".join(gap_lines)


BENCH = harness.Bench(name="fig9_cache", run=run, render=render, has_smoke=False)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
