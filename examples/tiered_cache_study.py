"""Tiered-memory study: DRAM-tier capacity x disk bandwidth sweep.

Mirrors ``repro figure fig9`` (the GPU cache-policy study) one level
down the memory hierarchy: instead of sweeping the GPU cache, it sweeps the **CPU DRAM
tier** — how many routed experts fit in host memory before the rest
spill to disk — against the spill medium's read bandwidth (the
``paper`` preset's NVMe drive vs the ``disk-slow`` preset's SATA one),
and reports per-tier hit rates, disk traffic and decode latency for
the HybriMoE strategy. Any other medium is a profile value:
``hardware=dataclasses.replace(get_hardware_preset("paper"), disk_bw=...)``.

The shape to look for: the GPU-tier hit rate barely moves (the GPU
cache is the same size throughout), while the DRAM-tier hit rate — the
fraction of GPU misses served from host memory rather than disk —
falls with capacity, and mean TBT degrades in proportion to
``(1 - dram_hit_rate) * disk_read_time``. A faster disk flattens the
curve; it never restores the unbounded-DRAM latency. Also swept: the
DRAM tier's eviction policy — an empirical question, and the answer
differs from the GPU tier's: the DRAM tier only ever sees GPU
*misses*, a residual reuse pattern where plain recency/frequency
(LRU/LFU) beat the score-aware MRS ranking that wins one tier up.

Run:  python examples/tiered_cache_study.py
"""

from repro.engine.factory import make_engine
from repro.experiments import format_table
from repro.models import get_preset

MODEL = "deepseek"
NUM_LAYERS = 6
DECODE_STEPS = 24
GPU_CACHE_RATIO = 0.25
DISKS = {"nvme (3.2 GB/s)": "paper", "sata (0.5 GB/s)": "disk-slow"}
DRAM_RATIOS = (1.0, 0.6, 0.4, 0.2)


def run_once(cpu_capacity, hardware, policy="lru"):
    engine = make_engine(
        model=MODEL,
        strategy="hybrimoe",
        cache_ratio=GPU_CACHE_RATIO,
        num_layers=NUM_LAYERS,
        cpu_cache_capacity=cpu_capacity,
        cpu_cache_policy=policy,
        hardware=hardware,
        seed=0,
    )
    result = engine.decode_only(num_steps=DECODE_STEPS)
    runtime = engine.runtime
    rates = runtime.cache.per_tier_hit_rates()
    disk = runtime.clock.disk
    return {
        "gpu_hit": rates["gpu"],
        "dram_hit": rates["cpu"],
        "disk_reads": len(disk),
        "disk_busy_s": disk.busy_time(),
        "mean_tbt_s": result.mean_tbt,
    }


def main() -> None:
    total = get_preset(MODEL, num_layers=NUM_LAYERS).total_routed_experts
    print(
        f"model: {MODEL} ({NUM_LAYERS} layers, {total} routed experts), "
        f"GPU cache {GPU_CACHE_RATIO:.0%}, hybrimoe strategy"
    )

    rows = []
    for ratio in DRAM_RATIOS:
        capacity = max(1, int(round(ratio * total)))
        for disk_name, hardware in DISKS.items():
            row = {"dram": f"{ratio:.0%}", "slots": capacity, "disk": disk_name}
            row.update(run_once(capacity, hardware))
            rows.append(row)
    print()
    print(
        format_table(
            rows, title="decode latency by DRAM capacity x disk bandwidth"
        )
    )

    policy_rows = []
    capacity = max(1, int(round(0.4 * total)))
    for policy in ("lru", "lfu", "mrs"):
        row = {"policy": policy, "slots": capacity}
        row.update(run_once(capacity, "paper", policy))
        policy_rows.append(row)
    print()
    print(
        format_table(
            policy_rows, title="DRAM-tier eviction policy @ 40% DRAM capacity"
        )
    )


if __name__ == "__main__":
    main()
