"""Degraded-mode serving: schedule transparency, timeouts, shedding.

The transparency suite is the acceptance criterion of the sub-replica
fault work: a :class:`~repro.hardware.faults.FaultSchedule` whose
windows never cover the run must leave the serving report
**bit-identical** to running with no schedule at all — for every
strategy, on the production and on the reference planner. The degradation
hook threads through the cost models, scheduler memos and prefetchers
of each strategy, so this is the test that proves the neutral path
applies no arithmetic anywhere.
"""

import pytest

from repro.engine.factory import make_serving_engine
from repro.errors import ConfigError
from repro.hardware.faults import DegradationState, Fault, FaultSchedule
from repro.serving import ServingConfig
from repro.serving.request import Request
from repro.serving.session import _remove_by_identity
from repro.workloads.generator import sample_prompt, serving_workload
from tests.reference_planner import install_reference_planner

MODEL = "mixtral"
NUM_LAYERS = 3
VOCAB = 512
ARRIVALS = [0.0, 0.02, 0.04, 0.3, 0.32, 0.6]
STRATEGIES = ("adapmoe", "hybrimoe", "ktransformers", "llamacpp", "ondemand")


def _engine(strategy="hybrimoe", reference_planner=False, **knobs):
    knobs.setdefault("max_batch_size", 3)
    serving = make_serving_engine(
        model=MODEL,
        strategy=strategy,
        cache_ratio=0.5,
        num_layers=NUM_LAYERS,
        seed=0,
        **knobs,
    )
    if reference_planner:
        # The from-scratch planner with the memo off, on the engine
        # the knobs above describe.
        install_reference_planner(serving.engine)
    return serving


def _trace(priority_mix=None, arrivals=ARRIVALS):
    return serving_workload(
        arrival_times=arrivals,
        decode_steps=4,
        vocab_size=VOCAB,
        seed=0,
        priority_mix=priority_mix,
    )


def _far_schedule(last_finish):
    """All three fault kinds, every window past the end of the run."""
    horizon = last_finish + 50.0
    return FaultSchedule(
        [
            Fault("link_degrade", 0, horizon, duration=5.0, severity=0.5),
            Fault("disk_stall", 0, horizon, duration=5.0),
            Fault("gpu_straggler", 0, horizon, duration=5.0, severity=2.0),
        ]
    )


class TestScheduleTransparency:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "reference_planner", [False, True], ids=["fast", "reference"]
    )
    def test_unfired_schedule_bit_identical(self, strategy, reference_planner):
        baseline = _engine(strategy, reference_planner).serve_trace(_trace())
        schedule = _far_schedule(baseline.last_finish)
        shadowed = _engine(strategy, reference_planner, faults=schedule).serve_trace(
            _trace()
        )
        assert shadowed.requests == baseline.requests
        assert shadowed.degradations == []
        assert shadowed.total_hits == baseline.total_hits
        assert shadowed.total_misses == baseline.total_misses

    def test_fired_schedule_slows_and_logs(self):
        baseline = _engine().serve_trace(_trace())
        schedule = FaultSchedule(
            [
                Fault(
                    "gpu_straggler",
                    0,
                    0.0,
                    duration=baseline.last_finish + 1.0,
                    severity=4.0,
                )
            ]
        )
        degraded = _engine(faults=schedule).serve_trace(_trace())
        assert degraded.last_finish > baseline.last_finish
        # Entry into the window is logged with the non-neutral state.
        assert degraded.degradations
        assert degraded.degradations[0].state.gpu_slowdown == 4.0

    def test_recovery_is_logged(self):
        baseline = _engine().serve_trace(_trace())
        window = baseline.makespan / 4
        schedule = FaultSchedule(
            [Fault("gpu_straggler", 0, 0.0, duration=window, severity=4.0)]
        )
        degraded = _engine(faults=schedule).serve_trace(_trace())
        assert len(degraded.degradations) >= 2
        assert degraded.degradations[-1].state == DegradationState()


    @pytest.mark.parametrize(
        "fault, message",
        [
            (Fault("crash", 0, 1.0), "crash faults act on fleet replicas"),
            (Fault("slow", 0, 1.0, duration=1.0), "slow faults act on fleet replicas"),
            (Fault("disk_stall", 1, 1.0, duration=1.0), "faults on replica 1 need a fleet"),
        ],
    )
    def test_fleet_only_faults_rejected(self, fault, message):
        with pytest.raises(ConfigError, match=message) as err:
            _engine(faults=FaultSchedule([fault]))
        assert "\n" not in str(err.value)


class TestRequestTimeouts:
    def test_all_requests_time_out_under_zero_budget(self):
        report = _engine(request_timeout_s=1e-6).serve_trace(_trace())
        assert report.num_timeouts == len(ARRIVALS)
        assert report.num_completed == 0
        assert sorted(r.request_id for r in report.requests) == list(
            range(len(ARRIVALS))
        )
        for record in report.requests:
            assert record.status == "timed_out"
            assert record.finish_time >= record.arrival_time

    def test_generous_budget_changes_nothing(self):
        baseline = _engine().serve_trace(_trace())
        report = _engine(request_timeout_s=1e6).serve_trace(_trace())
        assert report.requests == baseline.requests
        assert report.num_timeouts == 0

    def test_timeout_releases_state_engine_stays_usable(self):
        serving = _engine(request_timeout_s=0.05)
        report = serving.serve_trace(_trace())
        assert report.num_timeouts >= 1
        # The engine must be reusable after aborts: a follow-up serve
        # on the same (warm) engine completes normally.
        follow_up = serving.serve_trace(_trace())
        assert follow_up.num_requests == len(ARRIVALS)

    def test_summary_reports_timeouts(self):
        summary = _engine(request_timeout_s=1e-6).serve_trace(_trace()).summary()
        assert summary["timeouts"] == len(ARRIVALS)
        assert summary["completed"] == 0

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigError, match="request_timeout_s"):
            ServingConfig(request_timeout_s=0.0)


class TestOverloadShedding:
    BURST = [0.0] * 8  # everything arrives at once

    def test_sheds_down_to_low_watermark(self):
        report = _engine(
            max_batch_size=1, shed_queue_depth=4, shed_resume_depth=2
        ).serve_trace(_trace(arrivals=self.BURST))
        assert report.num_shed >= 1
        assert report.num_shed + report.num_completed == len(self.BURST)
        for record in report.requests:
            if record.status == "shed":
                assert record.finish_time >= record.arrival_time

    def test_high_watermark_alone_uses_half_as_resume(self):
        explicit = _engine(
            max_batch_size=1, shed_queue_depth=4, shed_resume_depth=2
        ).serve_trace(_trace(arrivals=self.BURST))
        defaulted = _engine(
            max_batch_size=1, shed_queue_depth=4
        ).serve_trace(_trace(arrivals=self.BURST))
        assert defaulted.requests == explicit.requests

    def test_interactive_class_sheds_last(self):
        mix = {"interactive": 0.5, "batch": 0.5}
        report = _engine(
            max_batch_size=1, shed_queue_depth=3
        ).serve_trace(_trace(priority_mix=mix, arrivals=[0.0] * 10))
        shed = [r for r in report.requests if r.status == "shed"]
        assert shed
        # Lowest class goes first: no interactive request may be shed
        # while any batch request survived the same sweeps.
        if any(r.priority == "interactive" for r in shed):
            assert all(
                r.priority == "interactive"
                for r in report.requests
                if r.status == "finished"
            )
        else:
            assert all(r.priority == "batch" for r in shed)

    def test_deep_watermark_changes_nothing(self):
        baseline = _engine().serve_trace(_trace())
        report = _engine(shed_queue_depth=10_000).serve_trace(_trace())
        assert report.requests == baseline.requests
        assert report.num_shed == 0

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ConfigError, match="shed_queue_depth"):
            ServingConfig(shed_queue_depth=0)
        with pytest.raises(ConfigError, match="shed_resume_depth"):
            ServingConfig(shed_queue_depth=4, shed_resume_depth=4)
        with pytest.raises(ConfigError, match="shed_resume_depth"):
            ServingConfig(shed_resume_depth=2)


class TestRemoveByIdentity:
    def _request(self, request_id=0):
        return Request(
            request_id=request_id,
            prompt_tokens=sample_prompt("mtbench", VOCAB, seed=0, index=0),
            decode_steps=2,
            arrival_time=0.0,
        )

    def test_removes_by_identity_not_equality(self):
        target = self._request()
        twin = self._request()  # equal fields, different object
        items = [twin, target]
        _remove_by_identity(items, target)
        assert items == [twin]
        assert items[0] is twin

    def test_missing_target_raises(self):
        with pytest.raises(ValueError, match="not in list"):
            _remove_by_identity([self._request(1)], self._request(2))
