"""Chaos benchmark: degraded-mode serving under randomized fault campaigns.

Runs the :mod:`tools.chaos` harness — seeded campaigns composing
replica crashes, slow windows, PCIe link degradation, disk stalls and
GPU stragglers with request timeouts, retry-with-backoff and overload
shedding over diurnal/bursty traces — and gates on the fleet's safety
and liveness properties:

- **Invariants (hard)** — every submitted request reaches exactly one
  terminal status (``finished`` / ``timed_out`` / ``shed``), no records
  are lost or duplicated across the per-replica -> merged pooling, and
  per-replica degradation logs are time-monotone. Any violation fails
  the gate in every mode.
- **Coverage (hard)** — the campaign actually bit: crashes re-routed
  work (failovers >= 1), the shedder fired, all three hardware fault
  kinds were scheduled, and (full mode) timeouts fired (terminal
  timeouts + retries >= 1).
- **Goodput retention (hard floor + trajectory)** — completed goodput
  under chaos must retain >= ``RETENTION_FLOOR`` of the fault-free
  twin's goodput, and the mean retention is tracked against the
  committed baseline with the usual regression factor.

Everything is simulated time, so results are bit-stable across
machines. The committed repo-root ``BENCH_chaos.json`` is the
trajectory baseline; flags, file layouts and the gate rule are the
harness's (``benchmarks/harness.py``). The invariants gate on their
own as well: ``tools/chaos.py`` exits 1 on any violation.
"""

from __future__ import annotations

from dataclasses import replace

import harness
from chaos import CampaignSpec, run_campaign

from repro.hardware.faults import HARDWARE_FAULT_KINDS

#: Hard floor: completed goodput under chaos over the fault-free twin.
RETENTION_FLOOR = 0.5

#: Trajectory: mean retention may not regress by more than this factor
#: versus the committed baseline.
REGRESSION_FACTOR = 1.25

#: Campaign shape shared by both modes. The fleet is deliberately
#: oversubscribed at the trace's peak (peak_rate far above service
#: capacity) so the shedder and timeout sweeps genuinely engage; the
#: fault counts are high enough that every hardware kind lands in the
#: drawn schedules at the pinned seeds.
BASE_SPEC = CampaignSpec(
    replicas=3,
    base_rate=10.0,
    peak_rate=300.0,
    decode_steps=10,
    shed_queue_depth=16,
    max_retries=1,
    num_crashes=1,
    num_slow=2,
    num_hardware=6,
)

#: (seed, trace_kind) campaigns per mode. Full mode tightens the
#: timeout so the retry path fires at 200-request scale; the smoke
#: campaign keeps the looser timeout (at 64 requests a tight timeout
#: drags retention to the floor — the retry path is unit-tested, the
#: smoke gate covers crash/degrade/shed).
FULL = {
    "num_requests": 200,
    "request_timeout_s": 0.4,
    "campaigns": [(0, "diurnal"), (2, "bursty")],
}
SMOKE = {
    "num_requests": 64,
    "request_timeout_s": 0.4,
    "campaigns": [(2, "bursty")],
}


def _campaign_record(result) -> dict:
    faults = result.faults or ()
    merged = result.report.merged
    return {
        "seed": result.spec.seed,
        "trace": result.spec.trace_kind,
        "num_requests": result.spec.num_requests,
        "outcomes": result.outcome_counts(),
        "retries": merged.num_retries,
        "failovers": result.report.num_failovers,
        "replica_fault_kinds": sorted({f.kind for f in faults if not f.degrades}),
        "hardware_fault_kinds": sorted({f.kind for f in faults if f.degrades}),
        "degradation_events": sum(
            len(rep.degradations) for _, rep in result.report.per_replica
        ),
        "chaos_goodput_rps": merged.goodput,
        "clean_goodput_rps": result.clean_report.merged.goodput,
        "goodput_retention": result.goodput_retention,
        "invariant_violations": list(result.violations),
    }


def run(smoke: bool) -> tuple[dict, list[str]]:
    scale = SMOKE if smoke else FULL
    campaigns = []
    for seed, trace_kind in scale["campaigns"]:
        spec = replace(
            BASE_SPEC,
            seed=seed,
            trace_kind=trace_kind,
            num_requests=scale["num_requests"],
            request_timeout_s=scale["request_timeout_s"],
        )
        campaigns.append(_campaign_record(run_campaign(spec)))
    retentions = [c["goodput_retention"] for c in campaigns]

    failures = []
    for campaign in campaigns:
        tag = f"campaign seed={campaign['seed']} ({campaign['trace']})"
        for violation in campaign["invariant_violations"]:
            failures.append(f"{tag}: INVARIANT: {violation}")
        if campaign["goodput_retention"] < RETENTION_FLOOR:
            failures.append(
                f"{tag}: goodput retention "
                f"{campaign['goodput_retention']:.3f}x under the "
                f"{RETENTION_FLOOR}x floor"
            )
        if campaign["failovers"] < 1:
            failures.append(f"{tag}: the scheduled crash re-routed nothing")
        if campaign["outcomes"]["shed"] < 1:
            failures.append(f"{tag}: overload shedding never fired")
        missing = set(HARDWARE_FAULT_KINDS) - set(
            campaign["hardware_fault_kinds"]
        )
        if missing:
            failures.append(
                f"{tag}: hardware fault kinds never scheduled: "
                f"{sorted(missing)}"
            )
        if not smoke:
            exercised = campaign["retries"] + campaign["outcomes"]["timed_out"]
            if exercised < 1:
                failures.append(f"{tag}: request timeouts never fired")
    payload = {
        "campaigns": campaigns,
        "retention_mean": sum(retentions) / len(retentions),
    }
    return payload, failures


def render(payload: dict) -> str:
    lines = []
    for campaign in payload["campaigns"]:
        outcomes = campaign["outcomes"]
        lines.append(
            f"  seed {campaign['seed']} ({campaign['trace']}, "
            f"{campaign['num_requests']} requests): "
            f"{outcomes['finished']} finished / "
            f"{outcomes['timed_out']} timed out / {outcomes['shed']} shed, "
            f"{campaign['retries']} retries, "
            f"{campaign['failovers']} failovers, "
            f"{campaign['degradation_events']} degradation events"
        )
        lines.append(
            f"    goodput retention {campaign['goodput_retention']:.3f}x "
            f"({campaign['chaos_goodput_rps']:.2f} vs "
            f"{campaign['clean_goodput_rps']:.2f} req/s), invariants "
            f"{'OK' if not campaign['invariant_violations'] else 'VIOLATED'}"
        )
    lines.append(f"  mean retention: {payload['retention_mean']:.3f}x")
    return "\n".join(lines)


BENCH = harness.Bench(
    name="chaos",
    run=run,
    render=render,
    criteria={
        "retention_floor": RETENTION_FLOOR,
        "regression_factor": REGRESSION_FACTOR,
    },
    ratios=(("mean goodput retention", "retention_mean"),),
)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
