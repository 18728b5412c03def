"""Fleet degraded-mode: steering, retries, and chaos invariants.

Fleet-level counterpart of ``tests/serving/test_degraded_serving.py``:
one fault schedule applied per replica, router steering away from
degraded replicas, timeout retry-with-backoff re-routing, and a small
seeded chaos campaign run through the ``tools/chaos.py`` harness with
its invariant checker.
"""

import sys
from pathlib import Path

import pytest

from repro.engine.factory import make_fleet
from repro.errors import ConfigError
from repro.hardware.faults import Fault, FaultSchedule
from repro.workloads.generator import serving_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from chaos import CampaignSpec, check_invariants, run_campaign  # noqa: E402

MODEL = "mixtral"
NUM_LAYERS = 3
VOCAB = 512
ARRIVALS = [0.0, 0.02, 0.04, 0.06, 0.3, 0.32, 0.34, 0.36]


def _fleet(replicas=2, router="round_robin", **knobs):
    return make_fleet(
        model=MODEL,
        strategy="hybrimoe",
        cache_ratio=0.5,
        num_layers=NUM_LAYERS,
        seed=0,
        max_batch_size=4,
        replicas=replicas,
        router=router,
        **knobs,
    )


def _trace(arrivals=ARRIVALS, decode_steps=4):
    return serving_workload(
        arrival_times=arrivals,
        decode_steps=decode_steps,
        vocab_size=VOCAB,
        seed=0,
    )


class TestFleetScheduleTransparency:
    def test_unfired_hardware_schedule_bit_identical(self):
        baseline = _fleet(router="cache_affinity").serve_trace(_trace())
        horizon = baseline.merged.last_finish + 50.0
        schedule = FaultSchedule(
            [
                Fault("gpu_straggler", 0, horizon, duration=5.0, severity=2.0),
                Fault("link_degrade", 1, horizon, duration=5.0, severity=0.5),
            ]
        )
        shadowed = _fleet(router="cache_affinity", faults=schedule).serve_trace(
            _trace()
        )
        assert shadowed.merged.requests == baseline.merged.requests
        assert shadowed.decisions == baseline.decisions
        assert shadowed.merged.degradations == []

    def test_fault_beyond_pool_rejected(self):
        schedule = FaultSchedule([Fault("disk_stall", 5, at_time=1.0, duration=1.0)])
        with pytest.raises(ConfigError, match="disk_stall fault targets replica 5"):
            _fleet(faults=schedule)


class TestDegradationSteering:
    def test_router_avoids_degraded_replica_in_window(self):
        baseline = _fleet().serve_trace(_trace())
        window = (0.25, baseline.merged.last_finish + 1.0)
        schedule = FaultSchedule(
            [
                Fault(
                    "gpu_straggler",
                    0,
                    at_time=window[0],
                    duration=window[1] - window[0],
                    severity=8.0,
                )
            ]
        )
        report = _fleet(faults=schedule).serve_trace(_trace())
        assert sorted(r.request_id for r in report.merged.requests) == list(
            range(len(ARRIVALS))
        )
        for decision in report.decisions:
            if window[0] <= decision.time < window[1]:
                assert decision.replica != 0

    def test_degraded_replica_readmitted_when_alone(self):
        # Both replicas degraded: steering must not strand requests.
        schedule = FaultSchedule(
            [
                Fault("gpu_straggler", r, 0.0, duration=1e6, severity=2.0)
                for r in (0, 1)
            ]
        )
        report = _fleet(faults=schedule).serve_trace(_trace())
        assert report.merged.num_completed == len(ARRIVALS)


class TestTimeoutRetries:
    def test_retries_rescue_timed_out_requests(self):
        no_retry = _fleet(request_timeout_s=0.08).serve_trace(_trace())
        assert no_retry.merged.num_timeouts >= 1

        retried = _fleet(
            request_timeout_s=0.08, max_retries=4, retry_backoff_s=0.1
        ).serve_trace(_trace())
        # Conservation: one terminal record per submitted request.
        assert sorted(r.request_id for r in retried.merged.requests) == list(
            range(len(ARRIVALS))
        )
        assert retried.merged.num_retries >= 1
        # Retries strictly improve on the no-retry run's completions.
        assert retried.merged.num_completed > no_retry.merged.num_completed
        rescued = [
            r
            for r in retried.merged.requests
            if r.num_retries >= 1 and r.status == "finished"
        ]
        assert rescued

    def test_exhausted_retries_end_timed_out(self):
        report = _fleet(
            request_timeout_s=1e-6, max_retries=1, retry_backoff_s=1e-6
        ).serve_trace(_trace())
        assert report.merged.num_timeouts == len(ARRIVALS)
        for record in report.merged.requests:
            assert record.status == "timed_out"
            assert record.num_retries == 1  # budget spent before giving up

    def test_retry_knob_validation(self):
        with pytest.raises(ConfigError, match="max_retries"):
            _fleet(max_retries=-1)
        with pytest.raises(ConfigError, match="retry_backoff_s"):
            _fleet(max_retries=1, retry_backoff_s=0.0)


class TestChaosCampaign:
    def test_small_campaign_holds_all_invariants(self):
        spec = CampaignSpec(
            seed=0,
            replicas=2,
            num_requests=12,
            num_crashes=1,
            num_slow=1,
            num_hardware=2,
            model=MODEL,
            num_layers=NUM_LAYERS,
            decode_steps=4,
            request_timeout_s=1.0,
            shed_queue_depth=6,
        )
        result = run_campaign(spec)
        assert result.violations == ()
        counts = result.outcome_counts()
        assert sum(counts.values()) == spec.num_requests

    def test_invariant_checker_catches_loss_and_duplication(self):
        spec = CampaignSpec(
            seed=1, replicas=2, num_requests=8, model=MODEL,
            num_layers=NUM_LAYERS, decode_steps=4,
        )
        result = run_campaign(spec)
        report = result.report
        # Drop a record fleet-wide: both the merged pool and the
        # replica that held it lose it (conservation still holds, so
        # the loss shows up as a missing id).
        victim = report.merged.requests[0]
        report.merged.requests.remove(victim)
        for _, rep in report.per_replica:
            if victim in rep.requests:
                rep.requests.remove(victim)
        violations = check_invariants(spec.num_requests, report)
        assert any("exactly-once" in v for v in violations)

        # Duplicate one: caught as both duplication and conservation skew.
        report.merged.requests.append(report.merged.requests[0])
        violations = check_invariants(spec.num_requests, report)
        assert any("duplicated" in v for v in violations)
