"""Extra ablations of design choices (DESIGN.md §5), beyond the paper.

- transfer-count search and CPU work stealing, toggled independently;
- prefetch lookahead depth (the paper fixes 3 without ablating);
- MRS alpha / top-p sensitivity around the paper's ``p = 2K`` choice.

Claims-only, one size (``harness.BENCH_SCALE``).
"""

import harness

from repro.experiments.figures import (
    ablation_mrs_parameters,
    ablation_prefetch_depth,
    ablation_scheduler_variants,
)
from repro.experiments.reporting import format_table

#: ablation -> (generator, table title)
ABLATIONS = {
    "scheduler_variants": (
        ablation_scheduler_variants, "Ablation — transfer search / CPU stealing",
    ),
    "prefetch_depth": (ablation_prefetch_depth, "Ablation — prefetch lookahead depth"),
    "mrs_parameters": (
        ablation_mrs_parameters, "Ablation — MRS alpha / top-p sensitivity",
    ),
}


def run(smoke: bool) -> tuple[dict, list[str]]:
    tables = {
        name: generate(scale=harness.BENCH_SCALE, seed=harness.BENCH_SEED)
        for name, (generate, _) in ABLATIONS.items()
    }
    failures = []

    # The full search is never worse than the two-extremes heuristic.
    by_variant = {r["variant"]: r for r in tables["scheduler_variants"]}
    search = by_variant["search+steal"]["prefill_latency_s"]
    extremes = by_variant["extremes-only"]["prefill_latency_s"]
    if not search <= extremes * 1.02:
        failures.append(
            f"scheduler_variants: search+steal prefill {search:.4f} s is not "
            f"<= 1.02x extremes-only {extremes:.4f} s"
        )

    rows = tables["prefetch_depth"]
    if not all(r["decode_latency_s"] > 0 for r in rows):
        failures.append("prefetch_depth: a depth reports a non-positive decode latency")
    # Deeper lookahead should not collapse hit rates.
    hit_rates = [r["decode_hit_rate"] for r in rows]
    if not max(hit_rates) - min(hit_rates) < 0.3:
        failures.append(
            f"prefetch_depth: decode hit rate spans {min(hit_rates):.3f}-"
            f"{max(hit_rates):.3f} across depths, not < 0.3 apart"
        )

    # The paper's p = 2K neighbourhood must be competitive: the best
    # configuration is within a few points of the best overall.
    rows = tables["mrs_parameters"]
    best = max(r["hit_rate"] for r in rows)
    paper_like = max(r["hit_rate"] for r in rows if r["top_p_factor"] == 2)
    if not paper_like > best - 0.05:
        failures.append(
            f"mrs_parameters: best p = 2K hit rate {paper_like:.3f} is not within "
            f"0.05 of the best overall {best:.3f}"
        )
    return tables, failures


def render(payload: dict) -> str:
    return "\n\n".join(
        format_table(payload[name], title=title)
        for name, (_, title) in ABLATIONS.items()
    )


BENCH = harness.Bench(name="ablation_extra", run=run, render=render, has_smoke=False)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
