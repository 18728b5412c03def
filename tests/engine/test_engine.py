"""Engine integration: clock integrity, cache accounting, determinism."""

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.errors import ConfigError
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from tests.conftest import SMALL_PROFILE


@pytest.fixture
def small_engine(tiny_config):
    model = ReferenceMoEModel(tiny_config, seed=0)
    config = EngineConfig(cache_ratio=0.5, seed=0)
    return InferenceEngine(
        model, make_strategy("hybrimoe"), paper_testbed(), config, **SMALL_PROFILE
    )


class TestGenerate:
    def test_result_structure(self, small_engine, prompt_tokens):
        result = small_engine.generate(prompt_tokens, decode_steps=3)
        assert result.prefill is not None
        assert len(result.decode_steps) == 3
        assert result.ttft > 0
        assert result.mean_tbt > 0

    def test_empty_prompt_rejected(self, small_engine):
        with pytest.raises(ConfigError):
            small_engine.generate(np.array([], dtype=np.int64))

    def test_negative_decode_steps_rejected_before_running(
        self, small_engine, prompt_tokens
    ):
        with pytest.raises(ConfigError, match="decode_steps must be >= 0, got -1"):
            small_engine.generate(prompt_tokens, decode_steps=-1)
        with pytest.raises(ConfigError, match="decode_steps must be >= 0, got -2"):
            small_engine.decode_only(num_steps=-2)
        assert small_engine.runtime.clock.compute_frontier == 0.0

    def test_timeline_invariants_after_run(self, small_engine, prompt_tokens):
        small_engine.generate(prompt_tokens, decode_steps=4)
        small_engine.runtime.clock.validate()
        small_engine.runtime.cache.validate()

    def test_steps_monotone_in_time(self, small_engine, prompt_tokens):
        result = small_engine.generate(prompt_tokens, decode_steps=4)
        cursor = result.prefill.end
        for step in result.decode_steps:
            assert step.start >= result.prefill.start
            assert step.end >= cursor - 1e-9
            cursor = step.end

    def test_hit_accounting_totals(self, small_engine, prompt_tokens):
        result = small_engine.generate(prompt_tokens, decode_steps=2)
        step_hits = result.prefill.hits + sum(s.hits for s in result.decode_steps)
        step_misses = result.prefill.misses + sum(
            s.misses for s in result.decode_steps
        )
        # Engine totals come from cache stats, which include only the
        # generation's accesses (profiling traces never touch the cache).
        assert result.total_hits == step_hits
        assert result.total_misses == step_misses

    def test_decode_only_convenience(self, small_engine):
        result = small_engine.decode_only(num_steps=3)
        assert len(result.decode_steps) == 3


class TestDeterminism:
    def test_same_seed_same_latency(self, tiny_config, prompt_tokens):
        def run():
            model = ReferenceMoEModel(tiny_config, seed=0)
            config = EngineConfig(cache_ratio=0.5, seed=0)
            engine = InferenceEngine(
                model, make_strategy("hybrimoe"), paper_testbed(), config, **SMALL_PROFILE
            )
            return engine.generate(prompt_tokens, decode_steps=3)

        a, b = run(), run()
        assert a.ttft == b.ttft
        np.testing.assert_array_equal(a.tbt_values, b.tbt_values)
        assert a.total_hits == b.total_hits


class TestEngineConfigValidation:
    def test_cache_ratio_bounds(self):
        with pytest.raises(ConfigError):
            EngineConfig(cache_ratio=1.5)


class TestWarmupProfileSize:
    """The profiling run's size is an engine constructor argument."""

    @pytest.mark.parametrize("value", [0, -4])
    def test_profile_prompt_len_must_be_positive(self, tiny_model, value):
        with pytest.raises(ConfigError, match="warmup profile sizes"):
            InferenceEngine(tiny_model, make_strategy("hybrimoe"), profile_prompt_len=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_profile_decode_steps_must_be_positive(self, tiny_model, value):
        with pytest.raises(ConfigError, match="warmup profile sizes"):
            InferenceEngine(tiny_model, make_strategy("hybrimoe"), profile_decode_steps=value)

    def test_sizes_pick_the_profile(self, tiny_model):
        engine = InferenceEngine(
            tiny_model, make_strategy("ondemand"), profile_prompt_len=8, profile_decode_steps=2
        )
        trace = engine.runtime.warmup_trace
        assert engine.runtime.profile_sizes == (8, 2)
        assert trace.steps[0].n_tokens == 8 and len(trace.steps) == 3


class TestNoiseRobustness:
    def test_estimate_gap_keeps_invariants(self, small_engine, prompt_tokens):
        """The calibrated planner plans against fitted durations that
        differ from the executed roofline ones; that estimate-vs-reality
        gap must not break any clock invariant."""
        result = small_engine.generate(prompt_tokens, decode_steps=4)
        small_engine.runtime.clock.validate()
        assert result.ttft > 0
        runtime = small_engine.runtime
        shape = runtime.model_config.routed_expert_shape
        for tokens in (1, 2, 3):
            assert runtime.cost_estimated.gpu_expert_time(
                shape, tokens
            ) != runtime.cost_actual.gpu_expert_time(shape, tokens)


class TestRuntime:
    def test_capacity_from_ratio(self, small_engine):
        runtime = small_engine.runtime
        expected = round(0.5 * runtime.model_config.total_routed_experts)
        assert runtime.capacity == expected

    def test_frequency_ranking_covers_all_experts(self, small_engine):
        ranking = small_engine.runtime.frequency_ranking()
        config = small_engine.model.config
        assert len(ranking) == config.total_routed_experts
        assert len(set(ranking)) == len(ranking)

    def test_warmup_trace_cached(self, small_engine):
        assert small_engine.runtime.warmup_trace is small_engine.runtime.warmup_trace

    def test_prefetches_are_counted_issued_then_used(self, small_engine, prompt_tokens):
        runtime = small_engine.runtime
        assert runtime.prefetch_issued == runtime.prefetch_used == 0  # nothing issued yet
        small_engine.generate(prompt_tokens, decode_steps=12)
        assert runtime.prefetch_issued > 0
        assert 0 <= runtime.prefetch_used <= runtime.prefetch_issued
