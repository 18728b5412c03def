"""Metric catalogue, traced seams and the per-layer metric derivation.

Layer names are this repository's modules. ``.calls`` are exact counts
that repeat bit-for-bit for a fixed seed, ``.self_s`` is a layer
function's span time minus its child spans, ``.share`` is a layer's self
time over the traced wall. Metrics prefixed ``sim_`` or derived from
``StepMetrics`` / ``ServingReport`` are on the simulated clock.
"""

from __future__ import annotations

import numpy as np

from benchlib.tracer import ROOT
from benchlib.workloads import RATES, RESOURCES

#: (name, unit, better) — the metrics ``--trace 0`` prints.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("host_tokens_per_s", "tok/s", "higher"),
    ("host_peak_rss_mb", "MB", "lower"),
    ("sim_tokens_per_s", "tok/s", "higher"),
    ("sim_latency_ms", "ms", "lower"),
    ("sim_hit_rate", "share", "higher"),
]

#: Layers whose ``.share`` values (plus ``other.share``) sum to 1.
LAYERS = (
    "models",
    "core.planner",
    "core.prefetch",
    "core.executor",
    "cache",
    "hardware",
    "engine",
    "serving",
)

_MODEL = "repro.models.model.ReferenceMoEModel."
_SCHED = "repro.core.hybrid_scheduler.HybridScheduler."
_PREFETCH = "repro.core.prefetch.ImpactDrivenPrefetcher."
_CACHE_SPANS = {
    "access": "cache.access",
    "insert": "cache.insert",
    "insert_if_better": "cache.insert",
    "promote_to_dram": "cache.promote",
    "cached_experts_of_layer": "cache.lookup",
    "device_experts_of_layer": "cache.lookup",
    "spilled_experts": "cache.lookup",
    "lock": "cache.lock",
    "unlock_all": "cache.lock",
}
_TIER_OPS = ("access", "insert", "insert_if_better", "cached_experts_of_layer", "lock", "unlock_all")
#: The wrappers forward to the tier they wrap; spans of one name nest.
_CACHE_CLASSES = {
    "repro.cache.manager.ExpertCache.": _TIER_OPS,
    "repro.cache.sharded.ShardedCacheManager.": _TIER_OPS + ("device_experts_of_layer",),
    "repro.cache.tiered.TieredCacheManager.": _TIER_OPS
    + ("device_experts_of_layer", "spilled_experts", "promote_to_dram"),
}
PLAN = _SCHED + "plan"
LOWER_BOUND = _SCHED + "quick_makespan_lower_bound"
EXECUTE = "repro.engine.pipeline.execute_plan"
EXPERT_FORWARD = _MODEL + "expert_forward"

#: (span name, dotted seam). Several seams may share one span name.
SEAMS = (
    [
        (f"models.{op}", _MODEL + op)
        for op in ("attention", "route", "gate_scores", "expert_forward", "shared_forward")
    ]
    + [
        ("core.planner.plan", PLAN),
        ("core.planner.simulate_makespan", _SCHED + "simulate_makespan"),
        ("core.planner.screen", _SCHED + "screen_prediction_batch"),
        ("core.planner.screen", _SCHED + "quick_screen"),
        ("core.planner.quick", LOWER_BOUND),
        ("core.planner.quick", _SCHED + "quick_makespan_lower_bounds"),
        ("core.planner.quick", _SCHED + "quick_makespans_with"),
        ("core.prefetch.evaluate", _PREFETCH + "evaluate_candidates"),
        ("core.prefetch.select", _PREFETCH + "select"),
        ("core.executor.execute_plan", EXECUTE),
        ("hardware.reserve", "repro.hardware.device.ResourceTimeline.reserve"),
        ("engine.run_batch", "repro.engine.pipeline.StepPipeline.run_batch"),
        ("serving.step", "repro.serving.session.ServingSession.step"),
    ]
    + [(_CACHE_SPANS[op], cls + op) for cls, ops in _CACHE_CLASSES.items() for op in ops]
)


def _argument(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def make_hooks(tracer, counters: dict) -> dict:
    """Per-call hooks deriving counters the spans alone cannot give."""

    def on_expert_forward(args, kwargs, result):
        model, rows = args[0], args[1].shape[0]
        counters["expert_rows"] += rows
        # Computed from shapes (three d_model x d_ff matmuls, 2 flop per
        # multiply-add), not measured.
        counters["expert_gflop"] += 6.0 * rows * model.d_model * model.d_ff / 1e9

    def on_plan(args, kwargs, plan):
        bound = tracer.originals.get(LOWER_BOUND)
        if bound is None:
            return
        floor = bound(
            args[0],
            _argument(args, kwargs, 2, "activated"),
            _argument(args, kwargs, 3, "cached_experts"),
            _argument(args, kwargs, 4, "n_tokens"),
            spilled=_argument(args, kwargs, 9, "spilled"),
            disk_fetch_s=_argument(args, kwargs, 10, "disk_fetch_s", 0.0),
        )
        if floor > 0.0:
            counters["plan_gap_sum"] += plan.estimated_makespan / floor
            counters["plan_gap_n"] += 1

    def on_execute(args, kwargs, result):
        estimate = _argument(args, kwargs, 0, "plan").estimated_makespan
        if estimate > 0.0:
            counters["regret_sum"] += result.makespan / estimate
            counters["regret_n"] += 1

    return {EXPERT_FORWARD: on_expert_forward, PLAN: on_plan, EXECUTE: on_execute}


def new_counters() -> dict:
    return dict.fromkeys(
        ("expert_rows", "expert_gflop", "plan_gap_sum", "plan_gap_n", "regret_sum", "regret_n"),
        0.0,
    )


def _layer_of(span: str) -> str:
    for layer in sorted(LAYERS, key=len, reverse=True):
        if span == layer or span.startswith(layer + "."):
            return layer
    return "other"


def _per_layer_catalogue():
    rows = [("workloads.generate_s", "s", "lower")]

    def calls_and_self(prefix):
        return [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]

    for op in ("attention", "route", "gate_scores", "expert_forward"):
        rows += calls_and_self(f"models.{op}")
    rows += [
        ("models.expert_forward.rows_mean", "count", "higher"),
        ("models.expert_forward.gflop", "GFLOP", "lower"),
        ("models.shared_forward.self_s", "s", "lower"),
        ("models.share", "share", "lower"),
    ]
    rows += calls_and_self("core.planner.plan")
    rows += [("core.planner.plan.us_p50", "us", "lower"), ("core.planner.plan.us_p99", "us", "lower")]
    rows += calls_and_self("core.planner.simulate_makespan")
    rows += calls_and_self("core.planner.screen")
    rows += [
        ("core.planner.memo_hit_share", "share", "higher"),
        ("core.planner.plan_gap_mean", "ratio", "lower"),
        ("core.planner.share", "share", "lower"),
    ]
    rows += calls_and_self("core.prefetch.evaluate")
    rows += [
        ("core.prefetch.issued", "count", "lower"),
        ("core.prefetch.used", "count", "higher"),
        ("core.prefetch.useful_share", "share", "higher"),
        ("core.prefetch.share", "share", "lower"),
    ]
    rows += calls_and_self("core.executor.execute_plan")
    rows += [
        ("core.executor.regret_mean", "ratio", "lower"),
        ("core.executor.share", "share", "lower"),
    ]
    rows += calls_and_self("cache.access") + calls_and_self("cache.insert")
    rows += [
        ("cache.lookup.self_s", "s", "lower"),
        ("cache.evictions", "count", "lower"),
        ("cache.gpu.hit_rate", "share", "higher"),
        ("cache.dram.hit_rate", "share", "higher"),
        ("cache.dram.promotions", "count", "lower"),
        ("cache.share", "share", "lower"),
    ]
    rows += calls_and_self("hardware.reserve")
    rows += [(f"hardware.{r}.util", "share", "higher") for r in RESOURCES]
    rows += [(f"hardware.critical.{r}_share", "share", "lower") for r in RESOURCES]
    rows += [("hardware.share", "share", "lower")]
    rows += [
        ("engine.run_batch.calls", "count", "lower"),
        ("engine.run_batch.total_s", "s", "lower"),
        ("engine.run_batch.self_s", "s", "lower"),
        ("engine.step_ms_p50", "ms", "lower"),
        ("engine.step_ms_p99", "ms", "lower"),
        ("engine.share", "share", "lower"),
        ("engine.trace_overhead_share", "share", "lower"),
    ]
    rows += calls_and_self("serving.step")
    rows += [
        ("serving.admits", "count", "higher"),
        ("serving.batch_size.mean", "count", "higher"),
        ("serving.queue_wait_ms.mean", "ms", "lower"),
    ]
    rows += [(f"serving.rate{r}.tbt_p98_ms", "ms", "lower") for r in RATES]
    rows += [(f"serving.rate{r}.ttft_p75_ms", "ms", "lower") for r in RATES]
    rows += [("serving.share", "share", "lower"), ("other.share", "share", "lower")]
    # The issue's workload-specific end-to-end names. Every workload
    # must print every end-to-end metric, and these exist on some
    # workloads only or rest on 16 requests, so they are reported here,
    # without a bound.
    rows += [
        ("host_requests_per_s", "1/s", "higher"),
        ("sim_tbt_p50_ms", "ms", "lower"),
        ("sim_tbt_p98_ms", "ms", "lower"),
        ("sim_ttft_p50_ms", "ms", "lower"),
        ("sim_ttft_p75_ms", "ms", "lower"),
        ("sim_goodput_rps", "1/s", "higher"),
        ("sim_slo_share", "share", "higher"),
        ("sim_max_rate_rps", "1/s", "higher"),
        ("failed_share", "share", "lower"),
    ]
    return rows


PER_LAYER = _per_layer_catalogue()


def per_layer_metrics(
    sim: dict, spans: dict, counters: dict, extra: dict, missing=()
) -> dict:
    """Every ``PER_LAYER`` value for one workload.

    ``spans`` is ``Tracer.aggregate()`` of the fastest traced pass,
    ``counters`` that pass's hook counters; ``extra`` carries the numbers
    measured outside spans (``generate_s``, ``trace_overhead_share``,
    ``host_requests_per_s``, ``failed_share``). A metric of a seam that
    is not on this workload's path is 0; the metrics of a span whose
    every seam is in ``missing`` (renamed or deleted under ``src/``)
    are ``None``.
    """

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    wall = float(np.sum(span(ROOT, "durations")))
    layer_self = dict.fromkeys(LAYERS + ("other",), 0.0)
    for name, stats in spans.items():
        layer_self[_layer_of(name)] += stats["self_s"]  # bench.* spans are "other"

    def percentile(name, q, scale):
        durations = span(name, "durations")
        return float(np.percentile(durations, q)) * scale if np.size(durations) else 0.0

    def ratio(total, n):
        return counters[total] / counters[n] if counters[n] else 0.0

    out = {"workloads.generate_s": extra["generate_s"]}
    for name, _, _ in PER_LAYER:
        prefix, _, leaf = name.rpartition(".")
        if leaf in ("calls", "self_s"):
            out[name] = span(prefix, leaf)
    forwards = span("models.expert_forward", "calls")
    out["models.expert_forward.rows_mean"] = (
        counters["expert_rows"] / forwards if forwards else 0.0
    )
    out["models.expert_forward.gflop"] = counters["expert_gflop"]
    out["core.planner.plan.us_p50"] = percentile("core.planner.plan", 50, 1e6)
    out["core.planner.plan.us_p99"] = percentile("core.planner.plan", 99, 1e6)
    out["core.planner.memo_hit_share"] = sim["memo_hit_share"]
    out["core.planner.plan_gap_mean"] = ratio("plan_gap_sum", "plan_gap_n")
    out["core.prefetch.issued"] = sim["prefetch_issued"]
    out["core.prefetch.used"] = sim["prefetch_used"]
    out["core.prefetch.useful_share"] = sim["prefetch_useful_share"]
    out["core.executor.regret_mean"] = ratio("regret_sum", "regret_n")
    out["cache.evictions"] = sim["evictions"]
    out["cache.gpu.hit_rate"] = sim["hit_rate"]
    out["cache.dram.hit_rate"] = sim["dram_hit_rate"]
    out["cache.dram.promotions"] = span("cache.promote", "calls")
    for resource in RESOURCES:
        out[f"hardware.{resource}.util"] = sim[f"util.{resource}"]
        out[f"hardware.critical.{resource}_share"] = sim[f"critical.{resource}"]
    durations = span("engine.run_batch", "durations")
    out["engine.run_batch.total_s"] = float(np.sum(durations))
    out["engine.step_ms_p50"] = percentile("engine.run_batch", 50, 1e3)
    out["engine.step_ms_p99"] = percentile("engine.run_batch", 99, 1e3)
    out["engine.trace_overhead_share"] = extra["trace_overhead_share"]
    out["serving.admits"] = sim.get("admits", 0)
    out["serving.batch_size.mean"] = sim.get("batch_size_mean", 0.0)
    out["serving.queue_wait_ms.mean"] = sim.get("queue_wait_ms", 0.0)
    for rate in RATES:
        rung = sim.get("rungs", {}).get(rate, {})
        out[f"serving.rate{rate}.tbt_p98_ms"] = rung.get("tbt_p98_ms", 0.0)
        out[f"serving.rate{rate}.ttft_p75_ms"] = rung.get("ttft_p75_ms", 0.0)
    for layer, seconds in layer_self.items():
        out[f"{layer}.share"] = seconds / wall if wall else 0.0
    out["host_requests_per_s"] = extra["host_requests_per_s"]
    for key in ("tbt_p50_ms", "tbt_p98_ms", "ttft_p50_ms", "ttft_p75_ms",
                "goodput_rps", "slo_share", "max_rate_rps"):
        out[f"sim_{key}"] = sim.get(key, 0.0)
    out["failed_share"] = extra["failed_share"]
    for gone in {span_name for span_name, _ in SEAMS}:
        if all(dotted in missing for span_name, dotted in SEAMS if span_name == gone):
            out.update(dict.fromkeys((n for n in out if n.startswith(gone + ".")), None))
    return {name: out[name] for name, _, _ in PER_LAYER}
