"""SLO-aware serving: default bit-equivalence, chunking, preemption.

The acceptance property of the SLO refactor: with the **default**
configuration (every request in the one default class, chunking off,
preemption off) the serving loop is bit-identical to the historical
FCFS loop — enforced here by replaying the pre-refactor loop from
engine primitives and comparing tokens, timings, hidden states and
cache counters across **all five strategies**. The remaining tests pin
the behaviour of the three new mechanisms end to end.
"""

from collections import deque

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import available_strategies, make_strategy
from repro.engine.pipeline import SequenceStep
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from repro.rng import derive_rng
from repro.serving import Request, ServingConfig, ServingEngine
from repro.workloads.generator import sample_prompt
from tests.conftest import SMALL_PROFILE


def _fresh_engine(tiny_config, strategy="hybrimoe", cache_ratio=0.25, seed=0):
    config = EngineConfig(cache_ratio=cache_ratio, seed=seed)
    return InferenceEngine(
        ReferenceMoEModel(tiny_config, seed=seed),
        make_strategy(strategy),
        paper_testbed(),
        config,
        **SMALL_PROFILE,
    )


def _request_set(tiny_config, priorities=None):
    """Three staggered requests with dataset-typical prompts."""
    model = ReferenceMoEModel(tiny_config, seed=0)
    priorities = priorities or ["batch"] * 3
    return [
        Request(
            request_id=i,
            prompt_tokens=sample_prompt("mtbench", model.vocab_size, seed=0, index=i),
            decode_steps=5,
            arrival_time=0.0005 * i,
            sample_seed=i,
            priority=priorities[i],
        )
        for i in range(3)
    ]


def _legacy_fcfs_serve(engine, requests, max_batch_size):
    """The pre-SLO serving loop, replayed from engine primitives.

    This is a faithful transcription of the PR-1 loop: FCFS admission
    (head-of-line only, whole-prompt prefill as one dedicated step) +
    fused decode, with the same sampler derivation. Any behavioural
    drift of the default configuration shows up as a mismatch against
    ``ServingEngine.serve``.
    """
    pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
    origin = engine.runtime.clock.compute_frontier
    queue = deque(pending)
    running = []
    records = {}
    samplers = {}
    solo = len(pending) == 1

    def sampler_for(request):
        seed = engine.config.seed
        if request.sample_seed is None:
            if solo:
                return derive_rng(seed, "engine", "decode-sampling")
            return derive_rng(
                seed, "engine", "decode-sampling", "auto", request.request_id
            )
        return derive_rng(seed, "engine", "decode-sampling", request.sample_seed)

    while queue or running:
        now = engine.runtime.clock.compute_frontier - origin
        head = queue[0] if queue else None
        if (
            head is not None
            and len(running) < max_batch_size
            and (head.arrival_time <= now or not running)
        ):
            request = queue.popleft()
            arrival = request.arrival_time + origin
            state = engine.states.create(request.request_id)
            result = engine.pipeline.run_batch(
                [SequenceStep(request.prompt_tokens, state)],
                "prefill",
                not_before=max(max(now, request.arrival_time) + origin, arrival),
            )
            record = records[request.request_id] = {
                "prefill_start": result.metrics.start,
                "first_token": result.metrics.end,
                "last_token": result.metrics.end,
                "last_hidden": result.hidden[0][-1],
                "tokens": [],
                "tbts": [],
                "finish": None,
            }
            samplers[request.request_id] = sampler_for(request)
            if request.decode_steps == 0:
                record["finish"] = record["first_token"]
                engine.states.pop(request.request_id)
            else:
                running.append((request, record))
        else:
            batch = []
            for request, record in running:
                token = engine.model.sample_next_token(
                    record["last_hidden"], samplers[request.request_id]
                )
                record["tokens"].append(token)
                batch.append(
                    SequenceStep(
                        np.array([token]), engine.states.get(request.request_id)
                    )
                )
            result = engine.pipeline.run_batch(batch, "decode")
            metrics = result.metrics
            still = []
            for index, (request, record) in enumerate(running):
                record["last_hidden"] = result.hidden[index][-1]
                record["tbts"].append(metrics.end - record["last_token"])
                record["last_token"] = metrics.end
                if len(record["tbts"]) == request.decode_steps:
                    record["finish"] = metrics.end
                    engine.states.pop(request.request_id)
                else:
                    still.append((request, record))
            running = still
    stats = engine.runtime.cache.stats
    return records, (stats.hits, stats.misses)


class TestDefaultConfigBitEquivalence:
    @pytest.mark.parametrize("strategy", available_strategies())
    def test_default_serve_matches_legacy_fcfs_loop(self, tiny_config, strategy):
        max_batch = 2  # small enough to force queueing
        reference = _fresh_engine(tiny_config, strategy)
        legacy, legacy_stats = _legacy_fcfs_serve(
            reference, _request_set(tiny_config), max_batch
        )

        engine = _fresh_engine(tiny_config, strategy)
        requests = _request_set(tiny_config)
        report = ServingEngine(engine, ServingConfig(max_batch_size=max_batch)).serve(
            requests
        )

        assert report.preemptions == 0
        cache = engine.runtime.cache
        assert (cache.stats.hits, cache.stats.misses) == legacy_stats
        for request in requests:
            expected = legacy[request.request_id]
            assert request.output_tokens == expected["tokens"]
            assert request.prefill_start == expected["prefill_start"]
            assert request.first_token_time == expected["first_token"]
            assert request.finish_time == expected["finish"]
            assert request.tbt_values == expected["tbts"]
            np.testing.assert_array_equal(
                request.last_hidden, expected["last_hidden"]
            )


class TestChunkedPrefill:
    def _long_prompt_requests(self, tiny_config):
        """An interactive decoder plus a long batch-class prompt that
        arrives mid-decode (the stall chunking exists to bound)."""
        model = ReferenceMoEModel(tiny_config, seed=0)
        long_prompt = sample_prompt("mtbench", model.vocab_size, seed=0, index=0)
        return [
            Request(
                request_id=0,
                prompt_tokens=np.arange(12),
                decode_steps=10,
                arrival_time=0.0,
                sample_seed=0,
                priority="interactive",
            ),
            Request(
                request_id=1,
                prompt_tokens=long_prompt,
                decode_steps=2,
                arrival_time=0.001,
                sample_seed=1,
            ),
        ]

    def test_chunks_bound_decode_stalls(self, tiny_config):
        """The long prefill interleaves with decode steps instead of
        blocking them: the decoding request's worst token gap shrinks."""

        def tail_gap(chunk):
            engine = _fresh_engine(tiny_config)
            requests = self._long_prompt_requests(tiny_config)
            ServingEngine(
                engine,
                ServingConfig(max_batch_size=2, prefill_chunk_tokens=chunk),
            ).serve(requests)
            return max(requests[0].tbt_values)

        unchunked = tail_gap(None)
        chunked = tail_gap(8)
        assert chunked < unchunked

    def test_chunked_prefill_metrics_merge(self, tiny_config):
        """A long prompt admitted during decode runs one dedicated
        first slice plus hybrid slices riding the decode steps."""
        engine = _fresh_engine(tiny_config)
        decoder = Request(
            request_id=0,
            prompt_tokens=np.arange(8),
            decode_steps=8,
            arrival_time=0.0,
            sample_seed=0,
            priority="interactive",
        )
        request = Request(
            request_id=1,
            prompt_tokens=np.arange(20),
            decode_steps=2,
            arrival_time=0.0004,
            sample_seed=1,
        )
        ServingEngine(
            engine, ServingConfig(max_batch_size=2, prefill_chunk_tokens=8)
        ).serve([decoder, request])
        assert len(request.prefill_chunks) >= 2
        assert request.prefill_chunks[0].n_tokens == 8  # dedicated first slice
        assert request.prefill_chunks[0].batch_size == 1
        # Later slices are hybrid: they carry the decoder's token too.
        assert any(c.batch_size > 1 for c in request.prefill_chunks[1:])
        prefill = request.result.prefill
        assert prefill.n_tokens == 20
        assert request.prefill_pos == 20
        assert prefill.start == request.prefill_chunks[0].start
        assert prefill.end == request.prefill_chunks[-1].end
        assert prefill.hits == sum(c.hits for c in request.prefill_chunks)
        assert prefill.misses == sum(c.misses for c in request.prefill_chunks)
        assert request.first_token_time == prefill.end
        assert request.is_finished and decoder.is_finished

    def test_idle_platform_skips_chunking(self, tiny_config):
        """With nobody decoding there is no stall to bound: a solo long
        prompt prefills in one step even with chunking configured."""
        engine = _fresh_engine(tiny_config)
        request = Request(
            request_id=0, prompt_tokens=np.arange(20), decode_steps=2, sample_seed=0
        )
        ServingEngine(
            engine, ServingConfig(max_batch_size=1, prefill_chunk_tokens=8)
        ).serve([request])
        assert request.prefill_chunks == []
        assert request.result.prefill.n_tokens == 20
        assert request.is_finished

    def test_short_prompt_ignores_chunking(self, tiny_config):
        """A prompt within the chunk budget takes the single-step path
        and stays bit-identical to the unchunked serve."""
        results = []
        for chunk in (None, 64):
            engine = _fresh_engine(tiny_config)
            request = Request(
                request_id=0, prompt_tokens=np.arange(16), decode_steps=3
            )
            ServingEngine(
                engine, ServingConfig(max_batch_size=1, prefill_chunk_tokens=chunk)
            ).serve([request])
            results.append(
                (
                    request.output_tokens,
                    request.prefill_start,
                    request.finish_time,
                    tuple(request.tbt_values),
                )
            )
        assert results[0] == results[1]

    def test_prefill_only_chunked_request_finishes(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        decoder = Request(
            request_id=0,
            prompt_tokens=np.arange(8),
            decode_steps=10,
            sample_seed=0,
            priority="interactive",
        )
        request = Request(
            request_id=1,
            prompt_tokens=np.arange(20),
            decode_steps=0,
            arrival_time=0.0004,
            sample_seed=1,
        )
        report = ServingEngine(
            engine, ServingConfig(max_batch_size=2, prefill_chunk_tokens=8)
        ).serve([decoder, request])
        record = next(r for r in report.requests if r.request_id == 1)
        assert record.finish_time == record.first_token_time
        assert record.tbt_values == ()
        assert len(engine.states) == 0

    def test_drained_batch_finishes_remainder_in_one_step(self, tiny_config):
        """When the decoders finish mid-chunked-prefill, the remaining
        prompt runs as a single dedicated step."""
        engine = _fresh_engine(tiny_config)
        decoder = Request(
            request_id=0,
            prompt_tokens=np.arange(8),
            decode_steps=1,
            sample_seed=0,
            priority="interactive",
        )
        request = Request(
            request_id=1,
            prompt_tokens=np.arange(64),
            decode_steps=1,
            arrival_time=0.0004,
            sample_seed=1,
        )
        ServingEngine(
            engine, ServingConfig(max_batch_size=2, prefill_chunk_tokens=8)
        ).serve([decoder, request])
        assert request.is_finished
        assert request.prefill_pos == 64
        # First slice (8) + at most a couple of hybrid slices while the
        # one-token decoder drains, then the remainder in one step:
        # far fewer steps than the 8 slices strict chunking would take.
        assert 2 <= len(request.prefill_chunks) < 8
        assert request.prefill_chunks[-1].n_tokens > 8


class TestPreemption:
    def _overloaded(self, tiny_config, preemption):
        """One slot, a long batch decoder, then an interactive arrival."""
        engine = _fresh_engine(tiny_config)
        requests = [
            Request(
                request_id=0,
                prompt_tokens=np.arange(8),
                decode_steps=12,
                arrival_time=0.0,
                sample_seed=0,
                priority="batch",
            ),
            Request(
                request_id=1,
                prompt_tokens=np.arange(8),
                decode_steps=2,
                arrival_time=0.001,
                sample_seed=1,
                priority="interactive",
            ),
        ]
        report = ServingEngine(
            engine,
            ServingConfig(max_batch_size=1, preemption=preemption),
        ).serve(requests)
        return engine, requests, report

    def test_preemption_lets_interactive_cut_in(self, tiny_config):
        _, requests, report = self._overloaded(tiny_config, preemption=True)
        batch, interactive = requests
        assert report.preemptions == 1
        assert batch.num_preemptions == 1
        # The interactive request starts before the batch one finishes…
        assert interactive.prefill_start < batch.finish_time
        # …and both complete with their full decode budgets.
        assert batch.is_finished and interactive.is_finished
        assert len(batch.tbt_values) == 12
        assert len(interactive.tbt_values) == 2
        by_id = {r.request_id: r for r in report.requests}
        assert by_id[0].num_preemptions == 1
        assert by_id[1].num_preemptions == 0

    def test_preemption_improves_interactive_ttft(self, tiny_config):
        _, fcfs_requests, fcfs = self._overloaded(tiny_config, preemption=False)
        _, slo_requests, slo = self._overloaded(tiny_config, preemption=True)
        assert fcfs.preemptions == 0
        fcfs_ttft = {r.request_id: r.ttft for r in fcfs.requests}
        slo_ttft = {r.request_id: r.ttft for r in slo.requests}
        assert slo_ttft[1] < fcfs_ttft[1]
        # The victim's tokens are identical — only their timing moved.
        assert fcfs_requests[0].output_tokens == slo_requests[0].output_tokens

    def test_preempted_state_survives_pause(self, tiny_config):
        engine, requests, _ = self._overloaded(tiny_config, preemption=True)
        # Decode states were drained normally at completion…
        assert len(engine.states) == 0
        # …and the paused request's TBT trail shows one long pause gap
        # (the span the interactive request occupied the slot).
        batch = requests[0]
        assert max(batch.tbt_values) > min(batch.tbt_values)


class TestPerClassReporting:
    def test_class_summary_separates_classes(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        requests = _request_set(
            tiny_config, priorities=["batch", "interactive", "batch"]
        )
        requests[1].tbt_deadline = 10.0  # generous: always met
        report = ServingEngine(engine, ServingConfig(max_batch_size=2)).serve(requests)
        assert report.priority_classes() == ["batch", "interactive"]
        rows = {row["class"]: row for row in report.class_summary()}
        assert rows["batch"]["requests"] == 2
        assert rows["interactive"]["requests"] == 1
        assert rows["interactive"]["slo_attainment"] == 1.0
        assert np.isnan(rows["batch"]["slo_attainment"])  # no deadlines set
        total = sum(
            report.class_goodput(c) for c in report.priority_classes()
        )
        assert total == pytest.approx(report.goodput)

    def test_missed_deadline_counts_against_attainment(self, tiny_config):
        engine = _fresh_engine(tiny_config)
        request = Request(
            request_id=0,
            prompt_tokens=np.arange(8),
            decode_steps=4,
            tbt_deadline=1e-12,  # impossible
        )
        report = ServingEngine(engine).serve([request])
        row = report.class_summary()[0]
        assert row["slo_attainment"] == 0.0
        assert report.requests[0].meets_tbt_deadline is False

    def test_priority_admission_orders_arrived_queue(self, tiny_config):
        """With both classes waiting, the interactive request is served
        ahead of earlier-arrived batch requests."""
        engine = _fresh_engine(tiny_config)
        requests = [
            Request(
                request_id=i,
                prompt_tokens=np.arange(8),
                decode_steps=2,
                arrival_time=0.0,
                sample_seed=i,
                priority="interactive" if i == 2 else "batch",
            )
            for i in range(3)
        ]
        report = ServingEngine(engine, ServingConfig(max_batch_size=1)).serve(requests)
        starts = {r.request_id: r.prefill_start for r in report.requests}
        # All three are waiting at t=0: the interactive request jumps
        # both earlier-id batch requests, which then run FCFS.
        assert starts[2] < starts[0] < starts[1]
