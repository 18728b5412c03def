"""Serving loop: equivalence, contention, determinism, queueing.

The two acceptance properties of the multi-request refactor:

1. a single-request serve run is **bit-identical** to
   ``InferenceEngine.generate`` (hidden states, sampled tokens, step
   metrics);
2. concurrent requests share one expert cache, so their hit behaviour
   differs from isolated runs (real contention).
"""

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from repro.errors import ConfigError
from repro.rng import derive_rng
from repro.serving import Request, RequestStatus, ServingConfig, ServingEngine
from repro.workloads.generator import sample_prompt, serving_workload
from tests.conftest import SMALL_PROFILE

DECODE_STEPS = 6


def _fresh_engine(tiny_config, strategy="hybrimoe", cache_ratio=0.25, seed=0):
    config = EngineConfig(cache_ratio=cache_ratio, seed=seed)
    return InferenceEngine(
        ReferenceMoEModel(tiny_config, seed=seed),
        make_strategy(strategy),
        paper_testbed(),
        config,
        **SMALL_PROFILE,
    )


class TestSingleRequestEquivalence:
    @pytest.mark.parametrize("strategy", ["hybrimoe", "ktransformers", "ondemand"])
    def test_hidden_states_and_tokens_bit_identical(
        self, tiny_config, prompt_tokens, strategy
    ):
        # Reference: replicate generate()'s loop step by step, capturing
        # the hidden-state trajectory the engine never returns.
        reference = _fresh_engine(tiny_config, strategy)
        sample_rng = derive_rng(0, "engine", "decode-sampling")
        ref_hidden, _ = reference._run_step(prompt_tokens, "prefill")
        ref_tokens = []
        last = ref_hidden[-1]
        for _ in range(DECODE_STEPS):
            token = reference.model.sample_next_token(last, sample_rng)
            ref_tokens.append(token)
            ref_hidden, _ = reference._run_step(np.array([token]), "decode")
            last = ref_hidden[-1]

        served = _fresh_engine(tiny_config, strategy)
        request = Request(
            request_id=0,
            prompt_tokens=prompt_tokens,
            decode_steps=DECODE_STEPS,
            arrival_time=0.0,
        )
        ServingEngine(served).serve([request])

        assert request.output_tokens == ref_tokens
        assert request.last_hidden is not None
        # Bit-identical, not approximately equal:
        np.testing.assert_array_equal(request.last_hidden, ref_hidden[-1])

    def test_metrics_identical_to_generate(self, tiny_config, prompt_tokens):
        plain = _fresh_engine(tiny_config)
        generated = plain.generate(prompt_tokens, decode_steps=DECODE_STEPS)

        served = _fresh_engine(tiny_config)
        request = Request(
            request_id=0,
            prompt_tokens=prompt_tokens,
            decode_steps=DECODE_STEPS,
            arrival_time=0.0,
        )
        report = ServingEngine(served).serve([request])
        result = request.result

        assert result is not None
        assert result.prefill == generated.prefill
        assert result.decode_steps == generated.decode_steps
        assert result.total_hits == generated.total_hits
        assert result.total_misses == generated.total_misses
        record = report.requests[0]
        assert record.ttft == pytest.approx(generated.ttft)
        np.testing.assert_array_equal(
            np.asarray(record.tbt_values), generated.tbt_values
        )
        # Arrival at t=0 on a cold clock: no queueing delay.
        assert record.queueing_delay == pytest.approx(0.0)


class TestSharedCacheContention:
    def _prompts(self, tiny_config):
        model = ReferenceMoEModel(tiny_config, seed=0)
        return [
            sample_prompt("mtbench", model.vocab_size, seed=0, index=i)
            for i in range(2)
        ]

    def test_concurrent_requests_contend_for_one_cache(self, tiny_config):
        prompts = self._prompts(tiny_config)
        requests = [
            Request(
                request_id=i,
                prompt_tokens=prompt,
                decode_steps=12,
                arrival_time=0.0,
                sample_seed=i,
            )
            for i, prompt in enumerate(prompts)
        ]
        engine = _fresh_engine(tiny_config)
        report = ServingEngine(engine, ServingConfig(max_batch_size=4)).serve(requests)

        # Decode steps really were fused across the two requests.
        batch_sizes = {
            m.batch_size for r in report.requests for m in r.result.decode_steps
        }
        assert 2 in batch_sizes

        # Isolated runs: each request alone on its own fresh engine.
        isolated_hits = isolated_misses = 0
        for i, prompt in enumerate(prompts):
            solo = _fresh_engine(tiny_config)
            result = solo.generate(prompt, decode_steps=12)
            isolated_hits += result.total_hits
            isolated_misses += result.total_misses

        # Shared residency shifts hit behaviour vs the isolated runs.
        assert (report.total_hits, report.total_misses) != (
            isolated_hits,
            isolated_misses,
        )
        isolated_rate = isolated_hits / (isolated_hits + isolated_misses)
        assert report.hit_rate != pytest.approx(isolated_rate, abs=1e-12)

    def test_default_concurrent_requests_sample_independently(self, tiny_config):
        """Identical prompts with unset sample seeds must not decode
        identical token trajectories in a multi-request run."""
        engine = _fresh_engine(tiny_config)
        requests = [
            Request(request_id=i, prompt_tokens=np.arange(16), decode_steps=8)
            for i in range(2)
        ]
        ServingEngine(engine, ServingConfig(max_batch_size=2)).serve(requests)
        assert requests[0].output_tokens != requests[1].output_tokens

    def test_state_store_drained_after_serve(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        requests = [
            Request(request_id=i, prompt_tokens=np.arange(6), decode_steps=3)
            for i in range(2)
        ]
        ServingEngine(engine).serve(requests)
        assert len(engine.states) == 0
        assert all(r.is_finished for r in requests)


class TestTraceValidation:
    def _entry(self, arrival):
        """A trace entry duck-typed for arrival validation paths."""
        from repro.workloads.generator import ArrivedWorkload, WorkloadSpec

        workload = WorkloadSpec(
            kind="decode",
            dataset="mtbench",
            prompt_tokens=np.arange(4),
            decode_steps=1,
        )
        entry = ArrivedWorkload.__new__(ArrivedWorkload)
        object.__setattr__(entry, "arrival_time", arrival)
        object.__setattr__(entry, "workload", workload)
        object.__setattr__(entry, "priority", "batch")
        object.__setattr__(entry, "tbt_deadline", None)
        return entry

    def test_negative_arrival_rejected(self):
        from repro.serving.engine import requests_from_trace

        with pytest.raises(ConfigError):
            requests_from_trace([self._entry(-0.5), self._entry(1.0)])

    def test_unsorted_trace_warns_but_serves(self, tiny_config):
        from repro.serving.engine import requests_from_trace

        entries = [self._entry(2.0), self._entry(0.0)]
        with pytest.warns(UserWarning, match="not non-decreasing"):
            requests = requests_from_trace(entries)
        # Ids keep trace order; the serve loop orders by arrival.
        assert [r.request_id for r in requests] == [0, 1]
        assert [r.arrival_time for r in requests] == [2.0, 0.0]
        engine = _fresh_engine(tiny_config)
        report = ServingEngine(engine).serve(requests)
        assert report.num_requests == 2
        by_id = {r.request_id: r for r in report.requests}
        assert by_id[1].prefill_start <= by_id[0].prefill_start

    def test_sorted_trace_does_not_warn(self):
        import warnings as warnings_module

        from repro.serving.engine import requests_from_trace

        entries = [self._entry(0.0), self._entry(0.0), self._entry(1.5)]
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            requests = requests_from_trace(entries)
        assert len(requests) == 3


class TestArrivalDeterminism:
    def _serve(self, tiny_config, seed):
        engine = _fresh_engine(tiny_config)
        trace = serving_workload(
            num_requests=4, arrival_rate=50.0, decode_steps=4, seed=seed
        )
        serving = ServingEngine(engine, ServingConfig(max_batch_size=3))
        return serving.serve_trace(trace)

    def test_poisson_replay_is_deterministic(self, tiny_config):
        first = self._serve(tiny_config, seed=0)
        second = self._serve(tiny_config, seed=0)
        for a, b in zip(first.requests, second.requests):
            assert a.arrival_time == b.arrival_time
            assert a.prefill_start == b.prefill_start
            assert a.first_token_time == b.first_token_time
            assert a.finish_time == b.finish_time
            assert a.tbt_values == b.tbt_values
        assert first.summary() == second.summary()

    def test_different_seed_different_trace(self, tiny_config):
        first = self._serve(tiny_config, seed=0)
        second = self._serve(tiny_config, seed=1)
        assert [r.arrival_time for r in first.requests] != [
            r.arrival_time for r in second.requests
        ]


class TestQueueingAndLifecycle:
    def test_unit_batch_serialises_requests(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        requests = [
            Request(request_id=i, prompt_tokens=np.arange(8), decode_steps=3)
            for i in range(2)
        ]
        report = ServingEngine(engine, ServingConfig(max_batch_size=1)).serve(requests)
        first, second = report.requests
        # Second request queues behind the whole first generation.
        assert second.prefill_start >= first.finish_time
        assert second.queueing_delay > 0.0
        assert first.queueing_delay == pytest.approx(0.0)

    def test_clock_idles_until_late_arrival(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        request = Request(
            request_id=0, prompt_tokens=np.arange(8), decode_steps=2, arrival_time=7.5
        )
        report = ServingEngine(engine).serve([request])
        assert report.requests[0].prefill_start == pytest.approx(7.5)
        assert report.requests[0].queueing_delay == pytest.approx(0.0)

    def test_prefill_only_request_finishes_at_first_token(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        request = Request(request_id=0, prompt_tokens=np.arange(8), decode_steps=0)
        report = ServingEngine(engine).serve([request])
        record = report.requests[0]
        assert record.finish_time == record.first_token_time
        assert record.tbt_values == ()

    def test_back_to_back_serves_report_deltas_on_warm_engine(self, tiny_config):
        """A second serve on the same engine must report its own cache
        traffic and queueing, not the cumulative history."""
        engine = _fresh_engine(tiny_config)
        serving = ServingEngine(engine)
        first = serving.serve(
            [Request(request_id=0, prompt_tokens=np.arange(8), decode_steps=3)]
        )
        second = serving.serve(
            [Request(request_id=1, prompt_tokens=np.arange(8), decode_steps=3)]
        )
        cache = engine.runtime.cache
        assert first.total_hits + second.total_hits == cache.stats.hits
        assert first.total_misses + second.total_misses == cache.stats.misses
        record = second.requests[0]
        # Arrival shifted onto the warm clock: no phantom queueing delay.
        assert record.queueing_delay == pytest.approx(0.0)
        assert record.prefill_start >= first.requests[0].finish_time

    def test_aborted_serve_leaves_queued_requests_clean(self, tiny_config):
        """A mid-run failure must not orphan decode states, shift
        still-queued arrivals, or leave admitted requests replayable."""
        engine = _fresh_engine(tiny_config)
        ServingEngine(engine).serve(
            [Request(request_id=9, prompt_tokens=np.arange(6), decode_steps=2)]
        )  # warm the clock so the arrival-shift path is active
        serving = ServingEngine(engine)
        first = Request(request_id=0, prompt_tokens=np.arange(6), decode_steps=2)
        second = Request(
            request_id=1, prompt_tokens=np.arange(6), decode_steps=2, arrival_time=5.0
        )

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        engine.pipeline.run_batch = explode
        with pytest.raises(RuntimeError):
            serving.serve([first, second])
        assert len(engine.states) == 0
        # Still-queued request untouched and replayable...
        assert second.status is RequestStatus.QUEUED
        assert second.arrival_time == pytest.approx(5.0)
        # ...while the half-admitted one is not.
        assert first.status is not RequestStatus.QUEUED

    def test_duplicate_ids_rejected(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        requests = [
            Request(request_id=0, prompt_tokens=np.arange(4), decode_steps=1),
            Request(request_id=0, prompt_tokens=np.arange(4), decode_steps=1),
        ]
        with pytest.raises(ConfigError):
            ServingEngine(engine).serve(requests)

    def test_served_request_cannot_be_replayed(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        request = Request(request_id=0, prompt_tokens=np.arange(4), decode_steps=1)
        ServingEngine(engine).serve([request])
        fresh = _fresh_engine(tiny_config)
        with pytest.raises(ConfigError):
            ServingEngine(fresh).serve([request])
