"""Fig. 3 (a)-(f): the motivation analyses.

Regenerates each panel of the paper's Fig. 3 and claims its
qualitative shape (the property the paper's argument rests on).
Claims-only, one size (``harness.BENCH_SCALE``).
"""

import harness
import numpy as np

from repro.experiments.figures import (
    fig3a_activation_cdf,
    fig3b_reuse_probability,
    fig3c_workload_distribution,
    fig3d_existing_methods,
    fig3e_expert_count_sweep,
    fig3f_workload_sweep,
)
from repro.experiments.reporting import format_table

SCALED = {"scale": harness.BENCH_SCALE, "seed": harness.BENCH_SEED}

#: panel -> (generator, its arguments, table title, row stride shown)
PANELS = {
    "fig3a_activation_cdf": (fig3a_activation_cdf, SCALED, "Fig. 3a — activation CDF", 1),
    "fig3b_reuse_probability": (
        fig3b_reuse_probability, SCALED, "Fig. 3b — reuse probability by score rank", 4,
    ),
    "fig3c_workload_distribution": (
        fig3c_workload_distribution, SCALED, "Fig. 3c — prefill expert loads (sorted)", 8,
    ),
    "fig3d_existing_methods": (
        fig3d_existing_methods, SCALED, "Fig. 3d — existing frameworks, mixed probes", 1,
    ),
    "fig3e_expert_count_sweep": (
        fig3e_expert_count_sweep, {}, "Fig. 3e — CPU vs GPU time by expert count", 1,
    ),
    "fig3f_workload_sweep": (
        fig3f_workload_sweep, {}, "Fig. 3f — CPU vs GPU time by workload size", 1,
    ),
}


def run(smoke: bool) -> tuple[dict, list[str]]:
    panels = {
        name: generate(**arguments)
        for name, (generate, arguments, _, _) in PANELS.items()
    }
    failures = []

    # Neuron activations concentrate far more than expert activations.
    rows = panels["fig3a_activation_cdf"]
    mid = rows[len(rows) // 5]
    for expert in ("deepseek-expert", "mixtral-expert"):
        if not mid["opt-neuron"] > mid[expert]:
            failures.append(
                f"fig3a: opt-neuron CDF {mid['opt-neuron']:.3f} is not above "
                f"{expert} {mid[expert]:.3f} at the first quintile"
            )

    # High-score ranks predict reuse; the tail does not.
    probs = np.array([r["reuse_probability"] for r in panels["fig3b_reuse_probability"]])
    if not probs[:6].mean() > 3 * probs[-16:].mean():
        failures.append(
            f"fig3b: top-6 reuse probability {probs[:6].mean():.3f} is not "
            f"> 3x the last 16 ranks' {probs[-16:].mean():.3f}"
        )

    # Uneven distribution: the busiest expert sees several times the mean.
    loads = np.array([r["load"] for r in panels["fig3c_workload_distribution"]])
    if not loads[0] > 2 * loads[loads > 0].mean():
        failures.append(
            f"fig3c: busiest expert load {loads[0]} is not > 2x the mean "
            f"non-zero load {loads[loads > 0].mean():.1f}"
        )

    # llama.cpp collapses at prefill; no single method wins everywhere.
    by_key = {
        (r["scenario"], r["strategy"]): r["latency_s"]
        for r in panels["fig3d_existing_methods"]
    }
    llamacpp = by_key[("mixtral-prefill-128", "llamacpp")]
    ktransformers = by_key[("mixtral-prefill-128", "ktransformers")]
    if not llamacpp > 2 * ktransformers:
        failures.append(
            f"fig3d: llamacpp mixtral-prefill-128 latency {llamacpp:.4f} s is "
            f"not > 2x ktransformers' {ktransformers:.4f} s"
        )

    # First CPU expert pays warmup; marginal experts are cheaper.
    rows = panels["fig3e_expert_count_sweep"]
    first = rows[0]["cpu_time_s"]
    marginal = rows[1]["cpu_time_s"] - rows[0]["cpu_time_s"]
    if not marginal < first:
        failures.append(
            f"fig3e: marginal CPU expert {marginal:.2e} s is not cheaper than "
            f"the first {first:.2e} s"
        )

    rows = panels["fig3f_workload_sweep"]
    gpu_growth = rows[-1]["gpu_time_s"] / rows[0]["gpu_time_s"]
    cpu_growth = rows[-1]["cpu_time_s"] / rows[0]["cpu_time_s"]
    if not cpu_growth > 20 * gpu_growth:
        failures.append(
            f"fig3f: CPU time grows {cpu_growth:.1f}x over the workload sweep, "
            f"not > 20x the GPU's {gpu_growth:.1f}x"
        )
    return panels, failures


def render(payload: dict) -> str:
    return "\n\n".join(
        format_table(payload[name][::stride], title=title)
        for name, (_, _, title, stride) in PANELS.items()
    )


BENCH = harness.Bench(name="fig3_motivation", run=run, render=render, has_smoke=False)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
