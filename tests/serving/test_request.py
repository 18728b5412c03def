"""Request lifecycle container semantics."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.serving.request import Request, RequestStatus
from repro.workloads.generator import serving_workload


def _request(**overrides):
    defaults = dict(
        request_id=0,
        prompt_tokens=np.arange(8),
        decode_steps=4,
        arrival_time=0.5,
    )
    defaults.update(overrides)
    return Request(**defaults)


class TestValidation:
    def test_fresh_request_is_queued(self):
        request = _request()
        assert request.status is RequestStatus.QUEUED
        assert request.prompt_len == 8
        assert not request.is_finished

    def test_empty_prompt_rejected(self):
        with pytest.raises(ConfigError):
            _request(prompt_tokens=np.array([], dtype=np.int64))

    def test_2d_prompt_rejected(self):
        with pytest.raises(ConfigError):
            _request(prompt_tokens=np.zeros((2, 4), dtype=np.int64))

    def test_negative_decode_steps_rejected(self):
        with pytest.raises(ConfigError):
            _request(decode_steps=-1)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigError):
            _request(arrival_time=-0.1)

    @pytest.mark.parametrize("deadline", [0.0, -1.0, float("nan")])
    def test_non_positive_or_nan_deadline_rejected(self, deadline):
        with pytest.raises(ConfigError, match="tbt_deadline must be positive"):
            _request(tbt_deadline=deadline)

    def test_prompt_cast_to_int64(self):
        request = _request(prompt_tokens=[1, 2, 3])
        assert request.prompt_tokens.dtype == np.int64


class TestRecord:
    def test_to_record_before_finish_raises(self):
        with pytest.raises(SimulationError):
            _request().to_record()

    def test_record_latency_derivations(self):
        request = _request()
        request.status = RequestStatus.FINISHED
        request.prefill_start = 0.7
        request.first_token_time = 1.0
        request.finish_time = 2.0
        request.tbt_values = [0.1, 0.3]
        record = request.to_record()
        assert record.queueing_delay == pytest.approx(0.2)
        assert record.ttft == pytest.approx(0.5)
        assert record.e2e_latency == pytest.approx(1.5)
        assert record.decode_tokens == 2
        assert record.p50_tbt == pytest.approx(0.2)
        row = record.summary()
        assert {"queue_delay_s", "ttft_s", "p99_tbt_s", "e2e_s"} <= set(row)


class TestFromWorkload:
    def test_trace_entries_map_to_requests(self):
        trace = serving_workload(num_requests=3, arrival_rate=2.0, decode_steps=5, seed=1)
        requests = [Request.from_workload(i, entry) for i, entry in enumerate(trace)]
        for i, (request, entry) in enumerate(zip(requests, trace)):
            assert request.request_id == i
            assert request.arrival_time == entry.arrival_time
            assert request.decode_steps == 5
            assert request.sample_seed == i
            np.testing.assert_array_equal(
                request.prompt_tokens, entry.workload.prompt_tokens
            )
