"""Fleet benchmarks: router race, crash failover, burst autoscaling.

Three scenarios, all fully deterministic (metrics are *simulated* time,
so runs are bit-stable across machines — the regression gate can be
tight):

1. **skewed** — the cache-affinity payoff and the gate's hard
   criterion. Two hot prompt profiles (8-token prompts: sparse,
   distinct expert footprints on a 64-expert model) are served by a
   2-replica fleet under each routing policy, on the pure-recency
   ``ondemand`` cache that preserves profile residency (prefetching
   strategies deliberately wash it out by design). Each fleet first
   serves a paced warmup trace (cache content persists across serves),
   then a saturating burst whose drain time is what goodput measures.
   ``cache_affinity`` must beat ``round_robin`` on merged goodput for
   **every** seed — the request steering is the only difference
   between the runs.

2. **failover** — a replica crash mid-burst. The fleet must finish
   every request exactly once (lossless failover), and the goodput
   retained versus the crash-free run is tracked as a trajectory
   ratio (half the fleet dies; retention is capacity-bound).

3. **autoscale** — a flash-crowd trace against threshold autoscaling.
   Scale-ups must fire, every request completes, and the goodput win
   over the static minimum pool is tracked.

The committed repo-root ``BENCH_fleet.json`` is the trajectory
baseline; flags, file layouts and the gate rule are the harness's
(``benchmarks/harness.py``).
"""

from __future__ import annotations

import harness

from repro.engine.factory import make_fleet
from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.router import available_routers
from repro.hardware.faults import Fault, FaultSchedule
from repro.workloads.generator import (
    bursty_arrivals,
    poisson_arrivals,
    serving_workload,
    skewed_serving_workload,
)

#: Gate: a tracked ratio may not regress by more than this factor
#: versus the committed baseline.
REGRESSION_FACTOR = 1.25

#: Skewed-traffic scenario (shared by smoke and full; only trace sizes
#: and seed count scale). ``ondemand`` at a sub-unity cache ratio on
#: the 64-expert model is the regime where per-replica cache *content*
#: is profile-specific: 8-token prompts activate sparse expert sets,
#: and a pure-recency cache retains whichever profile it last served.
SKEWED = {
    "model": "deepseek",
    "strategy": "ondemand",
    "cache_ratio": 0.45,
    "num_layers": 6,
    "replicas": 2,
    "max_batch_size": 4,
    "num_profiles": 2,
    "prompt_length": 8,
    "decode_steps": 4,
    "warmup_rate": 3.0,
    "burst_rate": 250.0,
}
SKEWED_FULL = {"num_warmup": 32, "num_measure": 192, "seeds": [0, 1, 2]}
SKEWED_SMOKE = {"num_warmup": 24, "num_measure": 96, "seeds": [0]}

FAILOVER = {
    "model": "deepseek",
    "strategy": "hybrimoe",
    "cache_ratio": 0.5,
    "num_layers": 4,
    "replicas": 2,
    "max_batch_size": 4,
    "num_requests": 24,
    "arrival_rate": 40.0,
    "decode_steps": 8,
    "seed": 0,
}

AUTOSCALE = {
    "model": "deepseek",
    "strategy": "hybrimoe",
    "cache_ratio": 0.5,
    "num_layers": 4,
    "replicas": 3,
    "max_batch_size": 2,
    "num_requests": 24,
    "base_rate": 0.5,
    "burst_rate": 40.0,
    "burst_every": 30.0,
    "burst_duration": 2.0,
    "decode_steps": 6,
    "seed": 0,
    "high_watermark": 2.0,
    "low_watermark": 0.5,
}


# ----------------------------------------------------------------------
# scenario: skewed (router race, warm caches)
# ----------------------------------------------------------------------

def _skewed_fleet(router: str):
    p = SKEWED
    return make_fleet(
        model=p["model"],
        strategy=p["strategy"],
        cache_ratio=p["cache_ratio"],
        num_layers=p["num_layers"],
        seed=0,
        max_batch_size=p["max_batch_size"],
        replicas=p["replicas"],
        router=router,
    )


def run_skewed_race(num_warmup: int, num_measure: int, seed: int) -> dict:
    """One warm-then-burst serve per router; merged metrics each.

    The warmup serve populates each replica's cache under the router's
    own steering (a router earns its warm caches); the measured burst
    arrives faster than service, so goodput is drain-dominated and the
    cache hit rate — not the arrival process — sets the makespan.
    """
    p = SKEWED
    out = {}
    for router in available_routers():
        fleet = _skewed_fleet(router)
        warmup = skewed_serving_workload(
            num_requests=num_warmup,
            arrival_rate=p["warmup_rate"],
            num_profiles=p["num_profiles"],
            decode_steps=p["decode_steps"],
            prompt_length=p["prompt_length"],
            seed=seed,
        )
        fleet.serve_trace(warmup)
        # Same workload seed (same profiles the warmup heated), burst
        # arrivals from an independent stream.
        measure = skewed_serving_workload(
            arrival_times=list(
                poisson_arrivals(num_measure, p["burst_rate"], seed=seed + 1000)
            ),
            num_profiles=p["num_profiles"],
            decode_steps=p["decode_steps"],
            prompt_length=p["prompt_length"],
            seed=seed,
        )
        report = fleet.serve_trace(measure)
        counts = report.assignment_counts()
        out[router] = {
            "goodput_rps": report.merged.goodput,
            "hit_rate": report.merged.hit_rate,
            "p99_ttft_s": report.merged.ttft_percentiles()["p99"],
            "assignments": [counts.get(i, 0) for i in range(p["replicas"])],
        }
    return out


def _bench_skewed(smoke: bool) -> dict:
    scale = SKEWED_SMOKE if smoke else SKEWED_FULL
    per_seed = {}
    wins = []
    for seed in scale["seeds"]:
        race = run_skewed_race(scale["num_warmup"], scale["num_measure"], seed)
        race["affinity_vs_round_robin"] = (
            race["cache_affinity"]["goodput_rps"]
            / race["round_robin"]["goodput_rps"]
        )
        wins.append(race["affinity_vs_round_robin"])
        per_seed[str(seed)] = race
    return {
        "params": {**SKEWED, **scale},
        "per_seed": per_seed,
        "affinity_vs_round_robin_mean": sum(wins) / len(wins),
        "affinity_beats_round_robin_every_seed": all(w > 1.0 for w in wins),
    }


# ----------------------------------------------------------------------
# scenario: failover (crash mid-burst)
# ----------------------------------------------------------------------

def _failover_fleet(faults=None):
    p = FAILOVER
    return make_fleet(
        model=p["model"],
        strategy=p["strategy"],
        cache_ratio=p["cache_ratio"],
        num_layers=p["num_layers"],
        seed=p["seed"],
        max_batch_size=p["max_batch_size"],
        replicas=p["replicas"],
        router="round_robin",
        faults=faults,
    )


def run_failover() -> dict:
    """Crash replica 0 mid-run; compare against the crash-free serve."""
    p = FAILOVER

    def trace():
        return serving_workload(
            num_requests=p["num_requests"],
            arrival_rate=p["arrival_rate"],
            decode_steps=p["decode_steps"],
            seed=p["seed"],
        )

    clean = _failover_fleet().serve_trace(trace())
    crash_at = clean.merged.first_arrival + clean.merged.makespan / 2
    schedule = FaultSchedule([Fault("crash", replica=0, at_time=crash_at)])
    crashed = _failover_fleet(schedule).serve_trace(trace())
    return {
        "params": {**p, "crash_at": crash_at},
        "clean_goodput_rps": clean.merged.goodput,
        "crashed_goodput_rps": crashed.merged.goodput,
        "goodput_retention": crashed.merged.goodput / clean.merged.goodput,
        "num_failovers": crashed.num_failovers,
        "lossless": sorted(r.request_id for r in crashed.merged.requests)
        == list(range(p["num_requests"])),
    }


# ----------------------------------------------------------------------
# scenario: autoscale (flash crowd)
# ----------------------------------------------------------------------

def run_autoscale() -> dict:
    """Flash-crowd trace: threshold autoscaling vs the static minimum."""
    p = AUTOSCALE

    def trace():
        times = bursty_arrivals(
            p["num_requests"],
            base_rate=p["base_rate"],
            burst_rate=p["burst_rate"],
            burst_every=p["burst_every"],
            burst_duration=p["burst_duration"],
            seed=p["seed"],
        )
        return serving_workload(
            arrival_times=list(times),
            decode_steps=p["decode_steps"],
            seed=p["seed"],
        )

    def fleet(replicas, autoscale=None):
        return make_fleet(
            model=p["model"],
            strategy=p["strategy"],
            cache_ratio=p["cache_ratio"],
            num_layers=p["num_layers"],
            seed=p["seed"],
            max_batch_size=p["max_batch_size"],
            replicas=replicas,
            router="least_loaded",
            autoscale=autoscale,
        )

    config = AutoscaleConfig(
        min_replicas=1,
        max_replicas=p["replicas"],
        high_watermark=p["high_watermark"],
        low_watermark=p["low_watermark"],
    )
    scaled = fleet(p["replicas"], config).serve_trace(trace())
    static = fleet(1).serve_trace(trace())
    return {
        "params": p,
        "autoscaled_goodput_rps": scaled.merged.goodput,
        "static_min_goodput_rps": static.merged.goodput,
        "autoscale_speedup": scaled.merged.goodput / static.merged.goodput,
        "scale_ups": sum(
            1 for e in scaled.autoscale_events if e.action == "scale_up"
        ),
        "scale_downs": sum(
            1 for e in scaled.autoscale_events if e.action == "scale_down"
        ),
        "lossless": scaled.merged.num_requests == p["num_requests"],
    }


# ----------------------------------------------------------------------
# claims, ratios, table
# ----------------------------------------------------------------------

def run(smoke: bool) -> tuple[dict, list[str]]:
    skewed = _bench_skewed(smoke)
    failover = run_failover()
    autoscale = run_autoscale()
    failures = []
    if not skewed["affinity_beats_round_robin_every_seed"]:
        losses = {
            seed: race["affinity_vs_round_robin"]
            for seed, race in skewed["per_seed"].items()
            if race["affinity_vs_round_robin"] <= 1.0
        }
        failures.append(
            f"skewed: cache_affinity no longer strictly beats round_robin "
            f"on merged goodput (losing seeds: {losses})"
        )
    if not failover["lossless"]:
        failures.append("failover: crashed run lost requests")
    if failover["num_failovers"] < 1:
        failures.append("failover: the scheduled crash re-routed nothing")
    if not autoscale["lossless"]:
        failures.append("autoscale: run lost requests")
    if autoscale["scale_ups"] < 1:
        failures.append("autoscale: the flash crowd triggered no scale-up")
    scenarios = {"skewed": skewed, "failover": failover, "autoscale": autoscale}
    return {"scenarios": scenarios}, failures


RATIOS = (
    ("skewed: cache_affinity goodput vs round_robin",
     "scenarios.skewed.affinity_vs_round_robin_mean"),
    ("failover: goodput retention after a crash",
     "scenarios.failover.goodput_retention"),
    ("autoscale: goodput vs static minimum pool",
     "scenarios.autoscale.autoscale_speedup"),
)


def render(payload: dict) -> str:
    skewed = payload["scenarios"]["skewed"]
    lines = ["  skewed router race (merged goodput, warm caches):"]
    for seed, race in skewed["per_seed"].items():
        parts = "  ".join(
            f"{router} {race[router]['goodput_rps']:6.2f} req/s "
            f"(hit {race[router]['hit_rate']:.3f})"
            for router in available_routers()
        )
        lines.append(f"    seed {seed}: {parts}")
        lines.append(
            f"            cache_affinity vs round_robin: "
            f"{race['affinity_vs_round_robin']:.3f}x"
        )
    lines.append(
        f"    mean affinity win: {skewed['affinity_vs_round_robin_mean']:.3f}x "
        f"(every seed strict: {skewed['affinity_beats_round_robin_every_seed']})"
    )
    failover = payload["scenarios"]["failover"]
    lines.append(
        f"  failover: {failover['num_failovers']} re-routes, lossless "
        f"{failover['lossless']}, goodput retention "
        f"{failover['goodput_retention']:.3f}x "
        f"({failover['crashed_goodput_rps']:.2f} vs "
        f"{failover['clean_goodput_rps']:.2f} req/s)"
    )
    autoscale = payload["scenarios"]["autoscale"]
    lines.append(
        f"  autoscale: {autoscale['scale_ups']} up / "
        f"{autoscale['scale_downs']} down, "
        f"{autoscale['autoscale_speedup']:.3f}x goodput vs static minimum "
        f"({autoscale['autoscaled_goodput_rps']:.2f} vs "
        f"{autoscale['static_min_goodput_rps']:.2f} req/s)"
    )
    return "\n".join(lines)


BENCH = harness.Bench(
    name="fleet",
    run=run,
    render=render,
    criteria={"regression_factor": REGRESSION_FACTOR},
    ratios=RATIOS,
)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
