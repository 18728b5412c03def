"""Tiered memory serving: strategies raced under DRAM pressure.

The ROADMAP's north-star — serving the largest MoE models on commodity
hardware — breaks HybriMoE's assumption (§IV) that every expert is
DRAM-resident. This benchmark serves one Poisson trace per strategy on
a platform whose **CPU DRAM tier is capacity-limited** (a fraction of
the experts fit in host memory; the rest spill to an NVMe-class disk),
and reports goodput, tail TBT and per-tier cache hit rates plus the
disk link's traffic, the GPU -> DRAM demotions on the device-to-host
PCIe lanes and the clock's copy audit (uses of an expert that start
before its copy lands).

Claim checked (the scale-out analogue of Fig. 8/9 under memory
pressure): hybrid scheduling + MRS caching (hybrimoe) sustains at
least on-demand GPU loading's goodput when experts spill — schedule
simulation folds the disk -> CPU -> GPU chains into its transfer
search, and tier-aware prefetching pays disk reads off the critical
path. Every strategy must pass the copy audit with no violation.

Claims-only (no committed baseline): the full mode races all five
strategies at bench scale, ``--smoke`` the headline pair on a reduced
grid.
"""

from __future__ import annotations

import harness

from repro.engine.factory import available_strategies
from repro.experiments.reporting import format_table
from repro.models.presets import get_preset

ARRIVAL_RATE = 4.0
CACHE_RATIO = 0.25
DRAM_RATIO = 0.5            # fraction of all routed experts that fit in DRAM
DRAM_POLICY = "lru"
MAX_BATCH = 8

FULL = {
    "strategies": available_strategies(),
    "num_layers": harness.BENCH_SCALE.num_layers,
    "num_requests": 10,
    "decode_steps": 24,
}
SMOKE = {
    "strategies": ("hybrimoe", "ondemand"),
    "num_layers": 4,
    "num_requests": 6,
    "decode_steps": 4,
}


def _tier_and_disk_columns(serving) -> dict:
    runtime = serving.engine.runtime
    tier_rates = runtime.cache.per_tier_hit_rates()
    disk = runtime.clock.disk
    return {
        "hit_gpu_tier": tier_rates["gpu"],
        "hit_dram_tier": tier_rates["cpu"],
        "disk_reads": len(disk),
        "disk_busy_s": disk.busy_time(),
        "demotions": sum(
            row.label.startswith("demote ")
            for link in runtime.clock.d2h_links
            for row in link.intervals
        ),
        "copy_violations": len(runtime.clock.audit_copies()),
    }


def run(smoke: bool) -> tuple[dict, list[str]]:
    size = SMOKE if smoke else FULL
    # The DRAM slot budget is a fraction of the model's routed experts,
    # derived after the layer override is applied.
    total = get_preset("deepseek", num_layers=size["num_layers"]).total_routed_experts
    dram_slots = max(1, int(round(DRAM_RATIO * total)))
    rows = harness.strategy_race(
        size["strategies"],
        {
            "cache_ratio": CACHE_RATIO,
            "num_layers": size["num_layers"],
            "seed": harness.BENCH_SEED,
            "max_batch_size": MAX_BATCH,
            "cpu_cache_capacity": dram_slots,
            "cpu_cache_policy": DRAM_POLICY,
        },
        {
            "num_requests": size["num_requests"],
            "arrival_rate": ARRIVAL_RATE,
            "decode_steps": size["decode_steps"],
            "seed": harness.BENCH_SEED,
        },
        extra_columns=_tier_and_disk_columns,
    )

    by_strategy = {r["strategy"]: r for r in rows}
    hybrimoe, ondemand = by_strategy["hybrimoe"], by_strategy["ondemand"]
    failures = []
    if not hybrimoe["goodput_rps"] >= ondemand["goodput_rps"]:
        failures.append(
            f"hybrimoe goodput {hybrimoe['goodput_rps']:.3f} below "
            f"ondemand {ondemand['goodput_rps']:.3f} under DRAM pressure"
        )
    if not hybrimoe["disk_reads"] > 0:
        failures.append(
            "DRAM-constrained config produced no disk traffic — the tier "
            "cap is not binding and the race is vacuous"
        )
    for row in rows:
        if not row["copy_violations"] == 0:
            failures.append(
                f"{row['strategy']} used {row['copy_violations']} expert copies "
                "before they landed (ThreeResourceClock.audit_copies)"
            )
    if not hybrimoe["demotions"] > 0:
        failures.append(
            "hybrimoe demoted no GPU eviction into DRAM — the exclusive "
            "DRAM tier's demotion path never ran"
        )
    return {"dram_slots": dram_slots, "rows": rows}, failures


def render(payload: dict) -> str:
    rows = sorted(payload["rows"], key=lambda r: -r["goodput_rps"])
    table = format_table(
        rows,
        columns=[
            "strategy",
            "goodput_rps",
            "token_throughput",
            "p99_ttft_s",
            "p99_tbt_s",
            "hit_gpu_tier",
            "hit_dram_tier",
            "disk_reads",
            "disk_busy_s",
            "demotions",
            "copy_violations",
        ],
        title=(
            f"tiered-memory serving race — deepseek @ {CACHE_RATIO:.0%} GPU "
            f"cache, {payload['dram_slots']} DRAM slots "
            f"({DRAM_POLICY}), NVMe spill (best goodput first)"
        ),
    )
    best = rows[0]
    return (
        f"{table}\n\nbest under DRAM pressure: {best['strategy']} at "
        f"{best['goodput_rps']:.2f} req/s goodput, {best['disk_reads']} disk reads"
    )


BENCH = harness.Bench(name="tiered_memory", run=run, render=render)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
