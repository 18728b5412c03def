"""Predictive scheduling: bit-identity off, effect and counters on.

The confidence-gated predictor must be invisible unless it *earns*
influence: ``predictor=None`` (the default) and ``confidence_gate=1.0``
(calibrated confidence is strictly below 1) must both reproduce the
historical engine bit-for-bit — same step timings, same cache state.
When the gate does fire, the prefetch-hit counters account for what
speculation bought.
"""

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from tests.conftest import SMALL_PROFILE

STRATEGIES = ["hybrimoe", "ktransformers", "adapmoe", "llamacpp", "ondemand"]


def build_engine(tiny_config, strategy_name, cpu_capacity=None, **config_overrides):
    model = ReferenceMoEModel(tiny_config, seed=0)
    overrides = dict(config_overrides)
    if cpu_capacity is not None:
        overrides["cpu_cache_capacity"] = cpu_capacity
    config = EngineConfig(
        cache_ratio=0.25,
        seed=0,
        **overrides,
    )
    return InferenceEngine(
        model, make_strategy(strategy_name), paper_testbed(), config, **SMALL_PROFILE
    )


def step_fingerprint(metrics):
    return (
        metrics.stage,
        metrics.n_tokens,
        metrics.start,
        metrics.end,
        metrics.hits,
        metrics.misses,
        metrics.batch_size,
        tuple(sorted(metrics.utilization.items())),
    )


def result_fingerprint(result):
    steps = [result.prefill, *result.decode_steps]
    return (
        tuple(step_fingerprint(s) for s in steps),
        result.total_hits,
        result.total_misses,
    )


def cache_fingerprint(cache):
    stats = cache.stats
    fingerprint = [
        tuple(sorted(getattr(cache, "gpu_tier", cache).resident_keys)),
        (stats.hits, stats.misses, stats.insertions, stats.evictions,
         stats.rejected_inserts),
    ]
    cpu_tier = getattr(cache, "cpu_tier", None)
    if cpu_tier is not None:
        fingerprint.append(tuple(sorted(cpu_tier.resident_keys)))
        fingerprint.append(
            (cpu_tier.stats.hits, cpu_tier.stats.misses,
             cpu_tier.stats.insertions, cpu_tier.stats.evictions)
        )
    return tuple(fingerprint)


def run(engine, decode_steps=6):
    prompt = np.arange(8, dtype=np.int64)
    return engine.generate(prompt, decode_steps=decode_steps)


class TestGateOneBitIdentity:
    """``confidence_gate=1.0`` can never fire, so it must be invisible."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("predictor", ["frequency", "transition"])
    def test_matches_predictor_off(self, tiny_config, strategy, predictor):
        base = build_engine(tiny_config, strategy)
        gated = build_engine(
            tiny_config, strategy, predictor=predictor, confidence_gate=1.0
        )
        r_base, r_gated = run(base), run(gated)
        assert result_fingerprint(r_base) == result_fingerprint(r_gated)
        assert cache_fingerprint(base.runtime.cache) == cache_fingerprint(
            gated.runtime.cache
        )

    def test_matches_on_tiered_memory(self, tiny_config):
        base = build_engine(tiny_config, "hybrimoe", cpu_capacity=4)
        gated = build_engine(
            tiny_config,
            "hybrimoe",
            cpu_capacity=4,
            predictor="transition",
            confidence_gate=1.0,
        )
        r_base, r_gated = run(base), run(gated)
        assert result_fingerprint(r_base) == result_fingerprint(r_gated)
        assert cache_fingerprint(base.runtime.cache) == cache_fingerprint(
            gated.runtime.cache
        )


class TestPredictorOffDefaults:
    def test_default_config_has_no_gate(self, tiny_config):
        engine = build_engine(tiny_config, "hybrimoe")
        assert engine.runtime.prediction_gate is None
        run(engine)
        assert engine.runtime.prefetch_issued >= 0
        assert engine.runtime.prefetch_used == 0 or engine.runtime.prefetch_issued > 0

    def test_invalid_predictor_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="predictor"):
            EngineConfig(predictor="oracle")
        with pytest.raises(ConfigError, match="predict_horizon"):
            EngineConfig(predict_horizon=0)
        with pytest.raises(ConfigError, match="confidence_gate"):
            EngineConfig(confidence_gate=1.5)


class TestGateFires:
    def test_counters_and_calibration_accumulate(self, tiny_config):
        engine = build_engine(
            tiny_config,
            "hybrimoe",
            predictor="transition",
            confidence_gate=0.05,
        )
        run(engine, decode_steps=12)
        runtime = engine.runtime
        assert runtime.prediction_gate is not None
        assert runtime.prefetch_issued > 0
        assert 0.0 <= runtime.prefetch_hit_rate() <= 1.0
        accuracy = runtime.prediction_gate.predictor.calibrated_accuracy()
        assert accuracy and all(0.0 <= a <= 1.0 for a in accuracy.values())

    def test_warmup_trace_primes_the_predictor(self, tiny_config):
        engine = build_engine(
            tiny_config, "hybrimoe", predictor="frequency", confidence_gate=0.9
        )
        predictor = engine.runtime.prediction_gate.predictor
        # fit_trace over the warmup phase ran inside engine construction.
        assert predictor._obs_count.sum() > 0

    def test_hit_rate_zero_before_any_issue(self, tiny_config):
        engine = build_engine(
            tiny_config, "hybrimoe", predictor="transition", confidence_gate=0.05
        )
        assert engine.runtime.prefetch_hit_rate() == 0.0


class TestScreenPredictionBatch:
    def test_batch_equals_per_call_screen(self, tiny_config):
        """The batched screen must be float-equal to the scalar calls."""
        engine = build_engine(tiny_config, "hybrimoe")
        run(engine)
        scheduler = engine.runtime.scheduler
        items = [
            ([(0, 1), (1, 1)], {0}, 1, [2, 3], frozenset()),
            ([(2, 1), (3, 1)], set(), 1, [0], frozenset({3})),
            ([(1, 4)], {1, 2}, 4, [], frozenset()),
        ]
        batched = scheduler.screen_prediction_batch(items, disk_fetch_s=0.5)
        for item, got in zip(items, batched):
            activated, cached, n_tokens, candidates, spilled = item
            want = scheduler.quick_screen(
                activated, cached, n_tokens, candidates,
                spilled=spilled, disk_fetch_s=0.5,
            )
            assert got == want
