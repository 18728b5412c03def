"""Chaos harness: seeded fault campaigns with fleet invariant checking.

Generates randomized-but-reproducible degraded-mode campaigns — one
:class:`~repro.hardware.faults.FaultSchedule` of replica crashes, slow
windows and sub-replica hardware faults, composed with request
timeouts, retry-with-backoff and overload shedding — runs them against
a replica fleet on a diurnal or bursty trace, and checks the fleet's
safety invariants on the resulting reports:

1. **Exactly-once terminal outcome** — every submitted request id
   appears exactly once in the merged report, with a terminal status
   (``finished``, ``timed_out`` or ``shed``). No lost requests, no
   duplicate completions.
2. **Causal record times** — every record finishes at or after it
   arrived, and no time is negative, NaN or infinite.
3. **Monotone per-replica time** — each replica's degradation log is
   non-decreasing in time (a replica never observes a fault window out
   of order).
4. **Record conservation across the merge** — the merged report holds
   the same multiset of request ids as the per-replica reports
   combined; merging neither drops nor invents records.

Fault draws are rejection-resampled against the schedule's own
validation (no overlapping same-kind hardware windows, no double
crashes), and at least one replica is always kept crash-free so the
fleet retains capacity. Everything derives from the campaign seed —
rerunning a seed replays the identical campaign.

Usage::

    python tools/chaos.py                      # 5 campaigns, 48 requests each
    python tools/chaos.py --campaigns 20 --num-requests 200
    python tools/chaos.py --seed 7 --trace bursty --verbose
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.factory import make_fleet  # noqa: E402
from repro.errors import ConfigError  # noqa: E402
from repro.fleet.fleet import FleetReport  # noqa: E402
from repro.hardware.faults import Fault, FaultSchedule  # noqa: E402
from repro.serving.request import TERMINAL_STATUSES  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    bursty_arrivals,
    diurnal_arrivals,
    serving_workload,
)

__all__ = [
    "CampaignSpec",
    "CampaignResult",
    "generate_faults",
    "check_invariants",
    "run_campaign",
]

#: Redraw budget per fault before the generator gives up on fitting it
#: into the schedule (overlap rejection can exhaust dense windows).
_MAX_DRAWS = 64


@dataclass(frozen=True)
class CampaignSpec:
    """One chaos campaign: the fleet, the trace, and the fault mix.

    ``horizon_s`` bounds when faults may strike — it should roughly
    cover the trace's span so windows actually intersect the run.
    ``num_crashes`` is capped at ``replicas - 1`` (at least one replica
    always survives). All randomness derives from ``seed``.
    """

    seed: int = 0
    replicas: int = 3
    num_requests: int = 48
    trace_kind: str = "diurnal"  # "diurnal" | "bursty"
    base_rate: float = 4.0
    peak_rate: float = 40.0
    decode_steps: int = 6
    horizon_s: float = 8.0
    num_crashes: int = 1
    num_slow: int = 1
    num_hardware: int = 3
    request_timeout_s: float = 6.0
    max_retries: int = 1
    retry_backoff_s: float = 0.25
    shed_queue_depth: int = 24
    model: str = "deepseek"
    strategy: str = "hybrimoe"
    cache_ratio: float = 0.5
    num_layers: int = 4
    max_batch_size: int = 4
    router: str = "least_loaded"
    priority_mix: dict[str, float] = field(
        default_factory=lambda: {"interactive": 0.5, "batch": 0.5}
    )

    def __post_init__(self) -> None:
        if self.replicas < 2:
            raise ConfigError(
                f"chaos campaigns need >= 2 replicas, got {self.replicas}"
            )
        if self.num_crashes > self.replicas - 1:
            raise ConfigError(
                f"num_crashes={self.num_crashes} would leave no crash-free "
                f"replica in a {self.replicas}-replica fleet"
            )
        if self.trace_kind not in ("diurnal", "bursty"):
            raise ConfigError(
                f"unknown trace kind {self.trace_kind!r} "
                f"(known: diurnal, bursty)"
            )


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of one campaign run against its fault-free twin."""

    spec: CampaignSpec
    report: FleetReport
    clean_report: FleetReport
    faults: FaultSchedule | None
    violations: tuple[str, ...]

    @property
    def goodput_retention(self) -> float:
        """Chaos completed-goodput over the fault-free run's."""
        return self.report.merged.goodput / self.clean_report.merged.goodput

    def outcome_counts(self) -> dict[str, int]:
        """Terminal status histogram of the chaos run (string keys)."""
        counts = dict.fromkeys(sorted(s.value for s in TERMINAL_STATUSES), 0)
        for record in self.report.merged.requests:
            counts[str(record.status)] = counts.get(str(record.status), 0) + 1
        return counts


# ----------------------------------------------------------------------
# campaign generation
# ----------------------------------------------------------------------

def _draw_hardware_fault(rng: random.Random, spec: CampaignSpec) -> Fault:
    kind = rng.choice(("link_degrade", "disk_stall", "gpu_straggler"))
    at_time = rng.uniform(0.0, 0.8 * spec.horizon_s)
    duration = rng.uniform(0.1 * spec.horizon_s, 0.4 * spec.horizon_s)
    if kind == "link_degrade":
        severity = rng.uniform(0.2, 0.8)
    elif kind == "gpu_straggler":
        severity = rng.uniform(1.5, 4.0)
    else:
        severity = 1.0
    return Fault(
        kind=kind,
        replica=rng.randrange(spec.replicas),
        at_time=at_time,
        duration=duration,
        severity=severity,
    )


def generate_faults(
    spec: CampaignSpec,
    horizon: float | None = None,
) -> FaultSchedule | None:
    """Draw the campaign's fault schedule from its seed.

    Crash targets are sampled without replacement from at most
    ``replicas - 1`` replicas; slow and hardware faults are
    rejection-resampled against :class:`FaultSchedule`'s validation (a
    draw that cannot fit after the redraw budget is dropped — the
    campaign then simply carries fewer faults, which the caller can see
    in the returned schedule). ``horizon`` overrides ``spec.horizon_s`` as
    the fault-window bound — :func:`run_campaign` passes the actual
    trace's arrival span so windows intersect the run.
    """
    # A str seed is converted deterministically (unlike tuple hashing,
    # which PYTHONHASHSEED randomizes across processes).
    rng = random.Random(f"chaos-{spec.seed}")
    if horizon is not None:
        spec = replace(spec, horizon_s=horizon)
    faults: list[Fault] = []
    crash_targets = rng.sample(range(spec.replicas), spec.num_crashes)
    for replica in crash_targets:
        faults.append(
            Fault(
                kind="crash",
                replica=replica,
                at_time=rng.uniform(0.2 * spec.horizon_s, 0.8 * spec.horizon_s),
            )
        )

    def draw_slow() -> Fault:
        return Fault(
            kind="slow",
            replica=rng.randrange(spec.replicas),
            at_time=rng.uniform(0.0, 0.8 * spec.horizon_s),
            duration=rng.uniform(0.1 * spec.horizon_s, 0.4 * spec.horizon_s),
        )

    for draw, count in (
        (draw_slow, spec.num_slow),
        (lambda: _draw_hardware_fault(rng, spec), spec.num_hardware),
    ):
        for _ in range(count):
            for _ in range(_MAX_DRAWS):
                candidate = draw()
                try:
                    FaultSchedule([*faults, candidate])
                except ConfigError:
                    continue
                faults.append(candidate)
                break
    return FaultSchedule(faults) if faults else None


def _campaign_trace(spec: CampaignSpec):
    if spec.trace_kind == "diurnal":
        times = diurnal_arrivals(
            spec.num_requests,
            base_rate=spec.base_rate,
            peak_rate=spec.peak_rate,
            period=spec.horizon_s,
            seed=spec.seed,
        )
    else:
        times = bursty_arrivals(
            spec.num_requests,
            base_rate=spec.base_rate,
            burst_rate=spec.peak_rate,
            burst_every=spec.horizon_s / 2.0,
            burst_duration=spec.horizon_s / 8.0,
            seed=spec.seed,
        )
    return serving_workload(
        arrival_times=list(times),
        decode_steps=spec.decode_steps,
        seed=spec.seed,
        priority_mix=spec.priority_mix,
    )


def _campaign_fleet(
    spec: CampaignSpec, faults: FaultSchedule | None, resilience: bool
):
    return make_fleet(
        model=spec.model,
        strategy=spec.strategy,
        cache_ratio=spec.cache_ratio,
        num_layers=spec.num_layers,
        seed=spec.seed,
        max_batch_size=spec.max_batch_size,
        replicas=spec.replicas,
        router=spec.router,
        faults=faults,
        request_timeout_s=spec.request_timeout_s if resilience else None,
        shed_queue_depth=spec.shed_queue_depth if resilience else None,
        max_retries=spec.max_retries if resilience else 0,
        retry_backoff_s=spec.retry_backoff_s,
    )


# ----------------------------------------------------------------------
# invariant checking
# ----------------------------------------------------------------------

def check_invariants(num_requests: int, report: FleetReport) -> list[str]:
    """Check the fleet safety invariants; returns violation messages."""
    violations: list[str] = []
    merged = report.merged.requests

    ids = sorted(r.request_id for r in merged)
    expected = list(range(num_requests))
    if ids != expected:
        lost = sorted(set(expected) - set(ids))
        duplicated = sorted({i for i in ids if ids.count(i) > 1})
        extra = sorted(set(ids) - set(expected))
        violations.append(
            f"exactly-once: merged ids != submitted ids "
            f"(lost={lost}, duplicated={duplicated}, unknown={extra})"
        )

    for record in merged:
        if record.status not in TERMINAL_STATUSES:
            violations.append(
                f"exactly-once: request {record.request_id} recorded with "
                f"non-terminal status {record.status!r}"
            )
        finite = (
            record.arrival_time >= 0.0
            and record.finish_time == record.finish_time
            and record.finish_time != float("inf")
        )
        if not finite or record.finish_time < record.arrival_time:
            violations.append(
                f"causal times: request {record.request_id} finished at "
                f"{record.finish_time} but arrived at {record.arrival_time}"
            )

    for replica_id, replica_report in report.per_replica:
        log = replica_report.degradations
        for earlier, later in zip(log, log[1:]):
            if later.time < earlier.time:
                violations.append(
                    f"monotone time: replica {replica_id} degradation log "
                    f"goes backwards ({earlier.time} -> {later.time})"
                )

    pooled = sorted(
        r.request_id for _, rep in report.per_replica for r in rep.requests
    )
    if pooled != sorted(r.request_id for r in merged):
        violations.append(
            f"conservation: per-replica reports hold {len(pooled)} records "
            f"but the merge holds {len(merged)}"
        )
    return violations


# ----------------------------------------------------------------------
# running campaigns
# ----------------------------------------------------------------------

def run_campaign(spec: CampaignSpec) -> CampaignResult:
    """Run one chaos campaign plus its fault-free twin and check it.

    The twin serves the identical trace on an identical fleet with no
    faults and no resilience knobs — its goodput is the denominator of
    :attr:`CampaignResult.goodput_retention`. Fault windows are drawn
    over the trace's actual arrival span (not the nominal
    ``horizon_s``), so they intersect the run regardless of rates.
    """
    trace = _campaign_trace(spec)
    span = max(entry.arrival_time for entry in trace)
    faults = generate_faults(spec, horizon=max(span, 1e-3))
    report = _campaign_fleet(spec, faults, resilience=True).serve_trace(trace)
    clean_fleet = _campaign_fleet(spec, None, resilience=False)
    clean_report = clean_fleet.serve_trace(_campaign_trace(spec))

    violations = check_invariants(spec.num_requests, report)
    violations += [
        f"fault-free twin: {v}"
        for v in check_invariants(spec.num_requests, clean_report)
    ]
    return CampaignResult(
        spec=spec,
        report=report,
        clean_report=clean_report,
        faults=faults,
        violations=tuple(violations),
    )


def _describe(result: CampaignResult) -> str:
    spec = result.spec
    counts = result.outcome_counts()
    faults = result.faults or ()
    n_hw = sum(f.degrades for f in faults)
    n_replica = len(faults) - n_hw
    return (
        f"seed {spec.seed}: {spec.trace_kind} trace, "
        f"{n_replica} replica + {n_hw} hardware faults -> "
        f"{counts['finished']} finished / {counts['timed_out']} timed out / "
        f"{counts['shed']} shed, "
        f"{result.report.merged.num_retries} retries, "
        f"{result.report.num_failovers} failovers, "
        f"retention {result.goodput_retention:.3f}x"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--campaigns", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0, help="first campaign seed")
    parser.add_argument("--num-requests", type=int, default=48)
    parser.add_argument("--replicas", type=int, default=3)
    parser.add_argument(
        "--trace", choices=("diurnal", "bursty", "both"), default="both"
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    kinds = ("diurnal", "bursty") if args.trace == "both" else (args.trace,)
    base = CampaignSpec(
        num_requests=args.num_requests, replicas=args.replicas
    )
    failures = 0
    for i in range(args.campaigns):
        spec = replace(
            base, seed=args.seed + i, trace_kind=kinds[i % len(kinds)]
        )
        result = run_campaign(spec)
        print(_describe(result))
        if args.verbose:
            for fault in result.faults or ():
                print(f"    {fault}")
        for violation in result.violations:
            failures += 1
            print(f"  INVARIANT VIOLATED: {violation}", file=sys.stderr)
    if failures:
        print(f"{failures} invariant violation(s)", file=sys.stderr)
        return 1
    print(f"all invariants held across {args.campaigns} campaign(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
