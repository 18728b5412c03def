"""Admission policy: priority-then-FCFS + continuous batching decisions."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serving.request import Request, RequestStatus
from repro.serving.scheduler import ContinuousBatchingScheduler, ServingConfig


def _request(request_id, arrival, priority="batch", decode_steps=2, prompt_len=4):
    return Request(
        request_id=request_id,
        prompt_tokens=np.arange(prompt_len),
        decode_steps=decode_steps,
        arrival_time=arrival,
        priority=priority,
    )


def _running(*requests):
    for request in requests:
        request.status = RequestStatus.DECODING
    return list(requests)


def _preempted(*requests):
    for request in requests:
        request.status = RequestStatus.PREEMPTED
    return list(requests)


class TestServingConfig:
    def test_zero_batch_rejected(self):
        with pytest.raises(ConfigError):
            ServingConfig(max_batch_size=0)

    def test_zero_chunk_rejected(self):
        with pytest.raises(ConfigError):
            ServingConfig(prefill_chunk_tokens=0)

    def test_defaults_are_fcfs(self):
        config = ServingConfig()
        assert config.prefill_chunk_tokens is None
        assert config.preemption is False


class TestNextAction:
    def setup_method(self):
        self.scheduler = ContinuousBatchingScheduler(ServingConfig(max_batch_size=2))

    def test_arrived_request_admitted(self):
        request = _request(0, arrival=1.0)
        action = self.scheduler.next_action(2.0, [request], [])
        assert action.kind == "admit"
        assert action.request is request
        assert action.not_before == pytest.approx(2.0)

    def test_idle_platform_jumps_to_future_arrival(self):
        request = _request(0, arrival=5.0)
        action = self.scheduler.next_action(1.0, [request], [])
        assert action.kind == "admit"
        assert action.not_before == pytest.approx(5.0)

    def test_future_arrival_does_not_stall_running_batch(self):
        request = _request(0, arrival=5.0)
        action = self.scheduler.next_action(1.0, [request], _running(_request(9, 0.0)))
        assert action.kind == "decode"

    def test_full_batch_decodes_before_admitting(self):
        request = _request(0, arrival=0.0)
        running = _running(_request(8, 0.0), _request(9, 0.0))
        action = self.scheduler.next_action(1.0, [request], running)
        assert action.kind == "decode"

    def test_empty_queue_with_running_decodes(self):
        action = self.scheduler.next_action(1.0, [], _running(_request(9, 0.0)))
        assert action.kind == "decode"

    def test_nothing_to_do_returns_none(self):
        assert self.scheduler.next_action(1.0, [], []) is None

    def test_fcfs_head_of_line(self):
        first, second = _request(0, arrival=0.1), _request(1, arrival=0.2)
        action = self.scheduler.next_action(1.0, [first, second], [])
        assert action.request is first


class TestPriorityAdmission:
    def setup_method(self):
        self.scheduler = ContinuousBatchingScheduler(ServingConfig(max_batch_size=2))

    def test_interactive_jumps_batch_queue(self):
        batch = _request(0, arrival=0.1, priority="batch")
        interactive = _request(1, arrival=0.2, priority="interactive")
        action = self.scheduler.next_action(1.0, [batch, interactive], [])
        assert action.kind == "admit"
        assert action.request is interactive

    def test_fcfs_within_class(self):
        first = _request(0, arrival=0.1, priority="interactive")
        second = _request(1, arrival=0.2, priority="interactive")
        action = self.scheduler.next_action(1.0, [first, second], [])
        assert action.request is first

    def test_unarrived_interactive_does_not_block_arrived_batch(self):
        batch = _request(0, arrival=0.1, priority="batch")
        interactive = _request(1, arrival=9.0, priority="interactive")
        action = self.scheduler.next_action(1.0, [batch, interactive], [])
        assert action.request is batch

    def test_idle_jump_targets_earliest_arrival_not_priority(self):
        batch = _request(0, arrival=2.0, priority="batch")
        interactive = _request(1, arrival=5.0, priority="interactive")
        action = self.scheduler.next_action(1.0, [batch, interactive], [])
        assert action.request is batch
        assert action.not_before == pytest.approx(2.0)

    def test_unknown_priority_rejected(self):
        with pytest.raises(ConfigError):
            _request(0, arrival=0.0, priority="urgent")


class TestChunkedPrefillDecisions:
    def setup_method(self):
        self.scheduler = ContinuousBatchingScheduler(
            ServingConfig(max_batch_size=2, prefill_chunk_tokens=4)
        )

    def test_chunk_rides_decode_while_batch_active(self):
        """With decoders present, the slice fuses into the decode step
        (a hybrid step) — the policy just says 'decode'."""
        prefilling = _request(0, arrival=0.0, prompt_len=16)
        running = _running(_request(1, 0.0))
        action = self.scheduler.next_action(
            1.0, [], running, prefilling=prefilling
        )
        assert action.kind == "decode"

    def test_remainder_runs_when_nothing_decodes(self):
        prefilling = _request(0, arrival=0.0, prompt_len=16)
        action = self.scheduler.next_action(1.0, [], [], prefilling=prefilling)
        assert action.kind == "prefill"
        assert action.request is prefilling

    def test_no_admission_while_prefill_in_progress(self):
        prefilling = _request(0, arrival=0.0, prompt_len=16)
        queued = [_request(1, arrival=0.0, priority="interactive")]
        action = self.scheduler.next_action(
            1.0, queued, [], prefilling=prefilling
        )
        assert action.kind == "prefill"

    def test_prefilling_counts_against_batch_ceiling(self):
        scheduler = ContinuousBatchingScheduler(
            ServingConfig(max_batch_size=2, prefill_chunk_tokens=4)
        )
        queued = [_request(2, arrival=0.0)]
        running = _running(_request(1, 0.0))
        # One decoding + one just-finished prefill = full; next action
        # must decode, not admit.
        action = scheduler.next_action(
            1.0, queued, running + _running(_request(0, 0.0)), prefilling=None
        )
        assert action.kind == "decode"


class TestPreemptionDecisions:
    def setup_method(self):
        self.scheduler = ContinuousBatchingScheduler(
            ServingConfig(max_batch_size=2, preemption=True)
        )

    def test_interactive_arrival_preempts_newest_batch_victim(self):
        old = _request(0, arrival=0.0, priority="batch")
        new = _request(1, arrival=0.5, priority="batch")
        interactive = _request(2, arrival=1.0, priority="interactive")
        action = self.scheduler.next_action(2.0, [interactive], _running(old, new))
        assert action.kind == "preempt"
        assert action.request is new

    def test_equal_priority_does_not_preempt(self):
        running = _running(
            _request(0, 0.0, priority="batch"), _request(1, 0.0, priority="batch")
        )
        queued = [_request(2, arrival=1.0, priority="batch")]
        action = self.scheduler.next_action(2.0, queued, running)
        assert action.kind == "decode"

    def test_interactive_running_not_preempted_by_interactive(self):
        running = _running(
            _request(0, 0.0, priority="interactive"),
            _request(1, 0.0, priority="interactive"),
        )
        queued = [_request(2, arrival=1.0, priority="interactive")]
        action = self.scheduler.next_action(2.0, queued, running)
        assert action.kind == "decode"

    def test_unarrived_interactive_does_not_preempt(self):
        running = _running(
            _request(0, 0.0, priority="batch"), _request(1, 0.0, priority="batch")
        )
        queued = [_request(2, arrival=9.0, priority="interactive")]
        action = self.scheduler.next_action(2.0, queued, running)
        assert action.kind == "decode"

    def test_preemption_disabled_by_default(self):
        scheduler = ContinuousBatchingScheduler(ServingConfig(max_batch_size=2))
        running = _running(
            _request(0, 0.0, priority="batch"), _request(1, 0.0, priority="batch")
        )
        queued = [_request(2, arrival=1.0, priority="interactive")]
        assert scheduler.next_action(2.0, queued, running).kind == "decode"

    def test_paused_request_resumes_when_slot_frees(self):
        paused = _preempted(_request(0, 0.0, priority="batch"))
        action = self.scheduler.next_action(
            2.0, [], _running(_request(1, 0.0)), preempted=paused
        )
        assert action.kind == "resume"
        assert action.request is paused[0]

    def test_arrived_higher_priority_beats_resumption(self):
        paused = _preempted(_request(0, 0.0, priority="batch"))
        queued = [_request(2, arrival=1.0, priority="interactive")]
        action = self.scheduler.next_action(
            2.0, queued, _running(_request(1, 0.0)), preempted=paused
        )
        assert action.kind == "admit"
        assert action.request is queued[0]

    def test_resumption_beats_later_equal_priority_arrival(self):
        paused = _preempted(_request(0, 0.0, priority="batch"))
        queued = [_request(2, arrival=1.0, priority="batch")]
        action = self.scheduler.next_action(
            2.0, queued, _running(_request(1, 0.0)), preempted=paused
        )
        assert action.kind == "resume"
        assert action.request is paused[0]

    def test_warm_engine_shift_does_not_break_fcfs_within_class(self):
        """A preempted request's arrival was shifted onto the warm
        clock at admission; ordering must still use the trace-relative
        instant, or later arrivals would overtake it."""
        paused = _preempted(_request(0, arrival=0.1, priority="batch"))
        # Simulate admission on a warm engine with origin 2.0.
        paused[0].arrival_shift = 2.0
        paused[0].arrival_time += 2.0
        queued = [_request(2, arrival=1.5, priority="batch")]
        action = self.scheduler.next_action(
            3.0, queued, _running(_request(1, 0.0)), preempted=paused
        )
        assert action.kind == "resume"
        assert action.request is paused[0]
