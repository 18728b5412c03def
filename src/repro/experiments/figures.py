"""The paper's evaluation artifacts, each declared once in :data:`ARTIFACTS`.

An :class:`Artifact` names one table or figure of the paper (Fig. 3a-f,
7, 8, 9, Table III) or one of three extra ablations, and carries the
generator of its rows plus how they are shown. ``repro figure`` and
the claims of ``benchmarks/bench_paper.py`` read this registry, and the
docs list its names (docs/BENCHMARKS.md, "Paper artifacts and their
claims").

Every generator takes ``(scale, seed)`` and returns flat row
dictionaries ready for :func:`repro.experiments.reporting.format_table`.
An :class:`ExperimentScale` lets the same code serve CI-speed smoke
runs (``QUICK_SCALE``) and the full paper grid (``FULL_SCALE``):
layer-count reduction preserves per-layer behaviour (scheduling
decisions are per-layer); it only shortens the pipeline. The
engine-backed generators are loops over one measure function,
:func:`repro.experiments.runner.run_workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from repro.cache.base import make_policy
from repro.cache.manager import ExpertCache
from repro.core.hybrid_scheduler import SchedulerConfig
from repro.errors import ConfigError
from repro.experiments.reporting import add_speedup_column
from repro.experiments.runner import cached_model, cached_trace, run_workload
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.presets import get_preset
from repro.routing.generator import generate_trace
from repro.routing.statistics import (
    activation_cdf,
    expert_activation_frequency,
    prefill_load_distribution,
    reuse_probability_by_rank,
    synthetic_neuron_activation_cdf,
)
from repro.routing.trace import RoutingTrace
from repro.rng import derive_rng
from repro.workloads.generator import decode_workload, prefill_workloads

__all__ = [
    "Artifact",
    "ARTIFACTS",
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "replay_cache_hit_rate",
]

#: Frameworks compared in Figs. 7/8, in the paper's legend order.
PAPER_FRAMEWORKS = ("llamacpp", "adapmoe", "ktransformers", "hybrimoe")
#: Models evaluated, in Fig. 7's row order.
PAPER_MODELS = ("deepseek", "mixtral", "qwen2")
#: Cache ratios of the end-to-end grids.
PAPER_RATIOS = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class ExperimentScale:
    """Grid sizing shared by the end-to-end experiments."""

    num_layers: int | None
    prefill_buckets: tuple[int, ...]
    decode_steps: int
    trace_decode_steps: int

    def __post_init__(self) -> None:
        if self.decode_steps <= 0 or self.trace_decode_steps <= 1:
            raise ConfigError("scale requires positive decode step counts")


#: CI-sized grid: reduced layers, two buckets, short decodes.
QUICK_SCALE = ExperimentScale(
    num_layers=6, prefill_buckets=(32, 128), decode_steps=8, trace_decode_steps=48
)
#: Paper-sized grid (full layer counts, all buckets).
FULL_SCALE = ExperimentScale(
    num_layers=None,
    prefill_buckets=(32, 128, 512, 1024),
    decode_steps=32,
    trace_decode_steps=256,
)


def _trace(model_name: str, scale: ExperimentScale, seed: int) -> RoutingTrace:
    return cached_trace(model_name, scale.num_layers, scale.trace_decode_steps, seed)


# ----------------------------------------------------------------------
# Fig. 3 — motivation analyses
# ----------------------------------------------------------------------
def fig3a_activation_cdf(
    scale: ExperimentScale = QUICK_SCALE, seed: int = 0, *, curve_points: int = 11
) -> list[dict]:
    """Cumulative activation frequency: experts vs skewed neurons.

    Rows give the cumulative activation share at evenly spaced expert
    proportions for Mixtral experts, DeepSeek experts, and the
    synthetic OPT-like neuron baseline.
    """
    curves = {"opt-neuron": synthetic_neuron_activation_cdf(seed=seed)}
    for model_name in ("mixtral", "deepseek"):
        curves[f"{model_name}-expert"] = activation_cdf(_trace(model_name, scale, seed))
    return [
        {"expert_proportion": float(fraction)}
        | {
            name: float(np.interp(fraction, proportion, cumulative))
            for name, (proportion, cumulative) in curves.items()
        }
        for fraction in np.linspace(0.0, 1.0, curve_points)
    ]


def fig3b_reuse_probability(scale: ExperimentScale = QUICK_SCALE, seed: int = 0) -> list[dict]:
    """Reuse probability of DeepSeek experts by score rank (decode steps)."""
    reuse = reuse_probability_by_rank(_trace("deepseek", scale, seed))
    return [{"rank": rank, "reuse_probability": float(prob)} for rank, prob in enumerate(reuse)]


def fig3c_workload_distribution(scale: ExperimentScale = QUICK_SCALE, seed: int = 0) -> list[dict]:
    """Per-expert token loads of DeepSeek's first layer in one 128-token prefill, sorted desc."""
    model = cached_model("deepseek", scale.num_layers, seed)
    prompt = derive_rng(seed, "figures", "fig3c-prompt").integers(0, model.vocab_size, size=128)
    trace = generate_trace(model, prompt, decode_steps=0, seed=seed)
    loads = prefill_load_distribution(trace, layer=0)
    return [{"expert_rank": rank, "load": int(load)} for rank, load in enumerate(loads)]


def fig3d_existing_methods(scale: ExperimentScale = QUICK_SCALE, seed: int = 0) -> list[dict]:
    """Latency of the three existing frameworks on the paper's probes.

    Scenarios: Qwen2 prefill 128, Mixtral prefill 128, Mixtral decode
    10 tokens (Fig. 3d), for llama.cpp / AdapMoE / kTransformers at a
    50% cache ratio.
    """
    prefill = prefill_workloads(128, seed=seed)[0]
    scenarios = [
        ("qwen2-prefill-128", "qwen2", prefill),
        ("mixtral-prefill-128", "mixtral", prefill),
        ("mixtral-decode-10", "mixtral", decode_workload(10, seed=seed)),
    ]
    rows = []
    for (label, model_name, workload), strategy in product(scenarios, PAPER_FRAMEWORKS[:3]):
        result = run_workload(model_name, strategy, 0.5, workload, scale.num_layers, seed)
        latency = result.mean_tbt if workload.kind == "decode" else result.ttft
        rows.append(
            {"scenario": label, "strategy": strategy, "stage": workload.kind,
             "latency_s": float(latency)}
        )
    return rows


def _deepseek_expert_costs():
    """The paper testbed's cost model and DeepSeek's routed-expert shape."""
    cost = AnalyticCostModel(get_hardware_preset("paper"))
    return cost, get_preset("deepseek").routed_expert_shape


def fig3e_expert_count_sweep(max_experts: int = 6) -> list[dict]:
    """CPU vs GPU total time for 1..N experts at 4 tokens per expert.

    Reproduces the CPU overlap effect: the first CPU expert pays the
    cold-cache warmup, subsequent ones amortise it, while GPU time
    scales linearly in expert count (one kernel each).
    """
    cost, shape = _deepseek_expert_costs()
    cpu_times = [
        cost.cpu_expert_time(shape, 4, first_task=index == 0) for index in range(max_experts)
    ]
    return [
        {"experts": count, "cpu_time_s": float(sum(cpu_times[:count])),
         "gpu_time_s": float(count * cost.gpu_expert_time(shape, 4))}
        for count in range(1, max_experts + 1)
    ]


def fig3f_workload_sweep(
    workloads: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> list[dict]:
    """CPU vs GPU single-expert time across workload sizes.

    GPU time stays flat until the FLOP roofline; CPU time grows
    linearly almost immediately — the asymmetry all scheduling
    decisions ride on.
    """
    cost, shape = _deepseek_expert_costs()
    return [
        {"workload": tokens, "cpu_time_s": float(cost.cpu_expert_time(shape, tokens)),
         "gpu_time_s": float(cost.gpu_expert_time(shape, tokens))}
        for tokens in workloads
    ]


# ----------------------------------------------------------------------
# Fig. 7 / Fig. 8 — end-to-end grids
# ----------------------------------------------------------------------
def fig7_prefill(
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    *,
    models: tuple[str, ...] = PAPER_MODELS,
    ratios: tuple[float, ...] = PAPER_RATIOS,
    strategies: tuple[str, ...] = PAPER_FRAMEWORKS,
) -> list[dict]:
    """Prefill TTFT across models, cache ratios and input lengths."""
    rows = []
    for model_name, ratio, bucket in product(models, ratios, scale.prefill_buckets):
        workload = prefill_workloads(bucket, seed=seed)[0]
        for strategy in strategies:
            result = run_workload(model_name, strategy, ratio, workload, scale.num_layers, seed)
            rows.append(
                {"model": model_name, "cache_ratio": ratio, "bucket": bucket,
                 "prompt_len": workload.prompt_len, "strategy": strategy,
                 "ttft_s": float(result.ttft), "hit_rate": float(result.hit_rate)}
            )
    return rows


def fig8_decode(
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    *,
    models: tuple[str, ...] = PAPER_MODELS,
    ratios: tuple[float, ...] = PAPER_RATIOS,
    strategies: tuple[str, ...] = PAPER_FRAMEWORKS,
) -> list[dict]:
    """Decode TBT across models and cache ratios."""
    workload = decode_workload(scale.decode_steps, seed=seed)
    rows = []
    for model_name, ratio, strategy in product(models, ratios, strategies):
        result = run_workload(model_name, strategy, ratio, workload, scale.num_layers, seed)
        rows.append(
            {"model": model_name, "cache_ratio": ratio, "strategy": strategy,
             "mean_tbt_s": float(result.mean_tbt),
             "decode_hit_rate": float(result.decode_hit_rate())}
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 — cache policy comparison via trace replay
# ----------------------------------------------------------------------
def replay_cache_hit_rate(
    trace: RoutingTrace,
    capacity: int,
    policy_name: str,
    **policy_kwargs,
) -> float:
    """Replay a routing trace through a cache and measure decode hits.

    Misses insert the expert (modelling the on-demand load), exactly
    the access pattern Fig. 9 isolates. The prefill step warms the
    cache; only decode accesses count. ``policy_kwargs`` reach the
    policy's constructor; an MRS policy accumulates the top
    ``2 * num_activated`` scores per layer unless given ``top_p`` (the
    paper sets ``p = 2K``, §IV-D).
    """
    if capacity <= 0:
        raise ConfigError(f"capacity must be positive, got {capacity}")
    if policy_name == "mrs":
        policy_kwargs.setdefault("top_p", 2 * trace.num_activated)
    cache = ExpertCache(capacity, make_policy(policy_name, **policy_kwargs))

    # Initial residency: the most frequently activated experts.
    counts = expert_activation_frequency(trace)
    every_expert = product(range(trace.num_layers), range(trace.num_experts))
    cache.warm_fill(sorted(every_expert, key=lambda key: (-counts[key], *key)))

    decode_hits = 0
    decode_accesses = 0
    for step in trace.steps:
        for routing in step.layers:
            cache.observe_scores(routing.layer, routing.mean_scores)
            for expert in routing.activated():
                key = (routing.layer, expert)
                hit = cache.access(key)
                if not step.is_prefill:
                    decode_accesses += 1
                    decode_hits += int(hit)
                if not hit:
                    cache.insert(key)
    if decode_accesses == 0:
        raise ConfigError("trace has no decode accesses")
    return decode_hits / decode_accesses


def _capacity(trace: RoutingTrace, cached_percent: float) -> int:
    return max(1, int(round(cached_percent * trace.num_layers * trace.num_experts)))


def fig9_cache_hit_rate(
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    *,
    models: tuple[str, ...] = PAPER_MODELS,
    percentages: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7),
    policies: tuple[str, ...] = ("lru", "mrs"),
) -> list[dict]:
    """MRS vs LRU hit rates across cached-expert percentages."""
    rows = []
    for model_name, percentage, policy_name in product(models, percentages, policies):
        trace = _trace(model_name, scale, seed)
        hit_rate = replay_cache_hit_rate(trace, _capacity(trace, percentage), policy_name)
        rows.append(
            {"model": model_name, "cached_percent": percentage, "policy": policy_name,
             "hit_rate": hit_rate}
        )
    return rows


# ----------------------------------------------------------------------
# Table III and the extra ablations (design choices beyond the paper's)
# ----------------------------------------------------------------------
def _variant_latencies(
    variants: dict[str, dict], model_name: str, scale: ExperimentScale, seed: int, prefill_len: int
) -> list[tuple[str, float, float]]:
    """``(name, prefill TTFT, decode mean TBT)`` of HybriMoE at a 25% cache per variant.

    A variant is the :func:`run_workload` keywords that set it apart
    (its ``strategy_kwargs=``).
    """
    prefill = prefill_workloads(prefill_len, seed=seed)[0]
    decode = decode_workload(scale.decode_steps, seed=seed)

    def run(workload, keywords):
        return run_workload(
            model_name, "hybrimoe", 0.25, workload, scale.num_layers, seed, **keywords
        )

    return [
        (name, float(run(prefill, keywords).ttft), float(run(decode, keywords).mean_tbt))
        for name, keywords in variants.items()
    ]


#: Table III rows: configuration name -> HybriMoE component toggles.
#: The baseline (first) reproduces kTransformers behaviour.
ABLATION_CONFIGS = {
    "baseline": {"scheduling": False, "prefetching": False, "caching": False},
    "baseline+scheduling": {"scheduling": True, "prefetching": False, "caching": False},
    "baseline+prefetching": {"scheduling": False, "prefetching": True, "caching": False},
    "baseline+caching": {"scheduling": False, "prefetching": False, "caching": True},
    "all": {"scheduling": True, "prefetching": True, "caching": True},
}


def table3_ablation(
    scale: ExperimentScale = QUICK_SCALE,
    seed: int = 0,
    *,
    model_name: str = "qwen2",
    prefill_len: int = 128,
) -> list[dict]:
    """Speedup breakdown of the three techniques (paper Table III).

    Each row switches on one component over the baseline, the last all
    three; speedups are relative to the baseline row.
    """
    variants = {name: {"strategy_kwargs": toggles} for name, toggles in ABLATION_CONFIGS.items()}
    latencies = _variant_latencies(variants, model_name, scale, seed, prefill_len)
    _, baseline_prefill, baseline_decode = latencies[0]
    return [
        {"config": name, "prefill_latency_s": prefill, "decode_latency_s": decode,
         "prefill_speedup": baseline_prefill / prefill, "decode_speedup": baseline_decode / decode}
        for name, prefill, decode in latencies
    ]


def ablation_scheduler(scale: ExperimentScale = QUICK_SCALE, seed: int = 0) -> list[dict]:
    """Transfer search and CPU stealing, toggled independently (DeepSeek)."""
    variants = {
        name: {"strategy_kwargs": {
            "scheduler": SchedulerConfig(search_transfers=search, allow_cpu_steal=steal)
        }}
        for name, search, steal in (
            ("search+steal", True, True),
            ("search-only", True, False),
            ("extremes+steal", False, True),
            ("extremes-only", False, False),
        )
    }
    return [
        {"variant": name, "prefill_latency_s": prefill, "decode_latency_s": decode}
        for name, prefill, decode in _variant_latencies(variants, "deepseek", scale, seed, 128)
    ]


def ablation_prefetch(scale: ExperimentScale = QUICK_SCALE, seed: int = 0) -> list[dict]:
    """Impact of the prefetch lookahead depth (paper fixes 3) on DeepSeek decode."""
    decode = decode_workload(scale.decode_steps, seed=seed)
    rows = []
    for depth in (1, 2, 3):
        result = run_workload(
            "deepseek", "hybrimoe", 0.25, decode, scale.num_layers, seed,
            strategy_kwargs={"lookahead": depth},
        )
        rows.append(
            {"lookahead": depth, "decode_latency_s": float(result.mean_tbt),
             "decode_hit_rate": float(result.decode_hit_rate())}
        )
    return rows


def ablation_mrs(scale: ExperimentScale = QUICK_SCALE, seed: int = 0) -> list[dict]:
    """MRS sensitivity to alpha and the top-p accumulation width.

    The paper sets ``p = 2 * num_activated`` (§IV-D); this sweep shows
    the neighbourhood of that choice via trace replay (DeepSeek, 30%
    of the experts cached).
    """
    trace = _trace("deepseek", scale, seed)
    capacity = _capacity(trace, 0.3)
    return [
        {"alpha": alpha, "top_p_factor": factor,
         "hit_rate": replay_cache_hit_rate(
             trace, capacity, "mrs", alpha=alpha, top_p=factor * trace.num_activated
         )}
        for alpha, factor in product((0.1, 0.3, 0.5, 0.9), (1, 2, 4))
    ]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Artifact:
    """One paper artifact: its rows and how they are shown.

    ``rows(scale, seed)`` generates the artifact. ``speedup`` names a
    latency column and the columns that group rows into one comparison:
    :meth:`measure` then adds the ``speedup`` over kTransformers within
    each group. ``columns`` (default: all) and ``stride`` (every n-th
    row) only shorten the table a benchmark prints.
    """

    name: str
    title: str
    rows: Callable[[ExperimentScale, int], list[dict]]
    speedup: tuple[str, tuple[str, ...]] | None = None
    columns: tuple[str, ...] | None = None
    stride: int = 1

    def measure(self, scale: ExperimentScale, seed: int) -> list[dict]:
        """The rows as printed and claimed on (``speedup`` column added)."""
        rows = self.rows(scale, seed)
        if self.speedup is None:
            return rows
        value_column, group_columns = self.speedup
        return add_speedup_column(rows, value_column, group_columns=group_columns)


_ARTIFACTS = (
    Artifact("fig3a", "Fig. 3a — activation CDF", fig3a_activation_cdf),
    Artifact(
        "fig3b", "Fig. 3b — reuse probability by score rank", fig3b_reuse_probability, stride=4
    ),
    Artifact(
        "fig3c", "Fig. 3c — prefill expert loads (sorted)", fig3c_workload_distribution, stride=8
    ),
    Artifact("fig3d", "Fig. 3d — existing frameworks, mixed probes", fig3d_existing_methods),
    # Cost-model sweeps: neither the scale nor the seed enters.
    Artifact(
        "fig3e", "Fig. 3e — CPU vs GPU time by expert count",
        lambda scale, seed: fig3e_expert_count_sweep(),
    ),
    Artifact(
        "fig3f", "Fig. 3f — CPU vs GPU time by workload size",
        lambda scale, seed: fig3f_workload_sweep(),
    ),
    Artifact(
        "fig7", "Fig. 7 — prefill TTFT (speedup vs kTransformers)", fig7_prefill,
        speedup=("ttft_s", ("model", "cache_ratio", "bucket")),
        columns=("model", "cache_ratio", "bucket", "strategy", "ttft_s", "speedup"),
    ),
    Artifact(
        "fig8", "Fig. 8 — decode TBT (speedup vs kTransformers)", fig8_decode,
        speedup=("mean_tbt_s", ("model", "cache_ratio")),
    ),
    Artifact("fig9", "Fig. 9 — cache hit rate, MRS vs LRU (decode accesses)", fig9_cache_hit_rate),
    Artifact("table3", "Table III — technique breakdown (Qwen2, 25% cache)", table3_ablation),
    Artifact("ablation_scheduler", "Ablation — transfer search / CPU stealing", ablation_scheduler),
    Artifact("ablation_prefetch", "Ablation — prefetch lookahead depth", ablation_prefetch),
    Artifact("ablation_mrs", "Ablation — MRS alpha / top-p sensitivity", ablation_mrs),
)
#: Every artifact of the evaluation by name, in the paper's order.
ARTIFACTS: dict[str, Artifact] = {artifact.name: artifact for artifact in _ARTIFACTS}
