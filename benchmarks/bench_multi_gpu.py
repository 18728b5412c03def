"""Multi-GPU serving: strategies on one trace across 4 GPUs.

Scale-out race for the sharded engine: every strategy serves the same
Poisson arrival trace on a 4-GPU platform through the
continuous-batching loop, with the expert cache sharded into
per-device shards and each expert dispatched to its home device
(``expert % 4``). The table reports fleet aggregates (goodput, tail
TBT) plus **per-device cache hit rates**, which show whether every
shard and link stays useful.

Checks the scale-out analogue of the paper's Fig. 8/9 claim: hybrid
scheduling + MRS caching (hybrimoe) sustains at least the aggregate
goodput of on-demand GPU loading.

Claims-only (no committed baseline): the full mode races all five
strategies at bench scale, ``--smoke`` the headline pair on a reduced
grid.
"""

from __future__ import annotations

import harness

from repro.engine.factory import available_strategies
from repro.experiments.reporting import format_table

NUM_GPUS = 4
ARRIVAL_RATE = 4.0
CACHE_RATIO = 0.25
MAX_BATCH = 8

FULL = {
    "strategies": available_strategies(),
    "num_layers": harness.BENCH_SCALE.num_layers,
    "num_requests": 12,
    "decode_steps": 24,
}
SMOKE = {
    "strategies": ("hybrimoe", "ondemand"),
    "num_layers": 4,
    "num_requests": 4,
    "decode_steps": 2,
}


def _per_device_hit_rates(serving) -> dict:
    rates = serving.engine.runtime.cache.per_device_hit_rates()
    return {f"hit_gpu{device}": rate for device, rate in enumerate(rates)}


def run(smoke: bool) -> tuple[dict, list[str]]:
    size = SMOKE if smoke else FULL
    rows = harness.strategy_race(
        size["strategies"],
        {
            "cache_ratio": CACHE_RATIO,
            "num_layers": size["num_layers"],
            "seed": harness.BENCH_SEED,
            "num_gpus": NUM_GPUS,
            "max_batch_size": MAX_BATCH,
        },
        {
            "num_requests": size["num_requests"],
            "arrival_rate": ARRIVAL_RATE,
            "decode_steps": size["decode_steps"],
            "seed": harness.BENCH_SEED,
        },
        extra_columns=_per_device_hit_rates,
    )

    # Hybrid scheduling + MRS caching keeps up with on-demand loading.
    failures = []
    by_strategy = {r["strategy"]: r for r in rows}
    hybrimoe, ondemand = by_strategy["hybrimoe"], by_strategy["ondemand"]
    if not hybrimoe["goodput_rps"] >= ondemand["goodput_rps"]:
        failures.append(
            f"hybrimoe goodput {hybrimoe['goodput_rps']:.3f} "
            f"below ondemand {ondemand['goodput_rps']:.3f}"
        )
    return {"rows": rows}, failures


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
            "hit_rate",
        ]
        + [f"hit_gpu{g}" for g in range(NUM_GPUS)],
        title=(
            f"multi-GPU serving race — deepseek @ {CACHE_RATIO:.0%} aggregate "
            f"cache on {NUM_GPUS} GPUs (best goodput first)"
        ),
    )
    best = rows[0]
    return (
        f"{table}\n\nbest strategy: {best['strategy']} "
        f"at {best['goodput_rps']:.2f} req/s goodput, "
        f"p99 TBT {best['p99_tbt_s'] * 1e3:.1f} ms"
    )


BENCH = harness.Bench(name="multi_gpu", run=run, render=render)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
