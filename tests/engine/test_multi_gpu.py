"""Multi-GPU engine: 1-GPU sharded equivalence, fleet dispatch, knobs.

Two contracts are pinned here:

- **Equivalence** — with one GPU, routing every operation through the
  sharded machinery (``sharded_cache=True``) reproduces the unsharded
  engine bit-for-bit: same hidden states, same sampled tokens, same
  step timings, same hit/miss counters, for all five strategies. Since
  the unsharded path is the historical single-GPU code, this transitively
  pins the multi-GPU refactor to the pre-sharding engine's behaviour.
- **Fleet dispatch** — with several GPUs the numerics still match the
  reference model, every timeline/shard invariant holds, and runs are
  deterministic under a fixed seed.

The 1-GPU fingerprints are additionally pinned as golden constants
(``TestSingleGpuGolden``): the equivalence tests only compare the two
paths with each other, so a drift of both at once, or a later deletion
of the unsharded block, has nothing to be compared against otherwise.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_engine, make_serving_engine, make_strategy
from repro.errors import ConfigError
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.workloads.generator import serving_workload

STRATEGIES = ["hybrimoe", "ktransformers", "adapmoe", "llamacpp", "ondemand"]


def build_engine(tiny_config, strategy_name, **overrides):
    model = ReferenceMoEModel(tiny_config, seed=0)
    config = EngineConfig(
        cache_ratio=0.25,
        seed=0,
        profile_prompt_len=8,
        profile_decode_steps=2,
        **overrides,
    )
    return InferenceEngine(
        model, make_strategy(strategy_name), paper_testbed(), config
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


class TestShardedSingleGpuEquivalence:
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_generate_bit_identical(self, tiny_config, prompt_tokens, strategy_name):
        plain = build_engine(tiny_config, strategy_name)
        sharded = build_engine(tiny_config, strategy_name, sharded_cache=True)
        assert plain.runtime.sharded is False
        assert sharded.runtime.sharded is True

        result_plain = plain.generate(prompt_tokens, decode_steps=4)
        result_sharded = sharded.generate(prompt_tokens, decode_steps=4)
        assert result_fingerprint(result_plain) == result_fingerprint(result_sharded)

    def test_serving_bit_identical(self, tiny_config):
        reports = []
        tokens = []
        for sharded_flag in (None, True):
            engine = build_engine(tiny_config, "hybrimoe", sharded_cache=sharded_flag)
            requests = [
                Request(
                    request_id=i,
                    prompt_tokens=np.arange(4) + i,
                    decode_steps=3,
                    arrival_time=0.002 * i,
                )
                for i in range(3)
            ]
            reports.append(ServingEngine(engine).serve(requests).summary())
            tokens.append([list(r.output_tokens) for r in requests])
        assert reports[0] == reports[1]
        assert tokens[0] == tokens[1]

    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_hidden_states_bit_identical(
        self, tiny_config, prompt_tokens, strategy_name
    ):
        plain = build_engine(tiny_config, strategy_name)
        sharded = build_engine(tiny_config, strategy_name, sharded_cache=True)
        hidden_plain, _ = plain._run_step(prompt_tokens, "prefill")
        hidden_sharded, _ = sharded._run_step(prompt_tokens, "prefill")
        np.testing.assert_array_equal(hidden_plain, hidden_sharded)


def digest(value):
    """Short stable hash of a nested tuple/dict of ints, floats and strs."""
    return hashlib.sha256(json.dumps(value, default=float).encode()).hexdigest()[:16]


#: ``digest(result_fingerprint(generate(prompt_tokens, decode_steps=4)))``
#: of the 1-GPU engine at commit f2cf8bc (unsharded == sharded there).
GOLDEN_1GPU = {
    "hybrimoe": "9d5d7c9ed0956f95",
    "ktransformers": "4ebb02ab915ded97",
    "adapmoe": "c7678859b8eef1e4",
    "llamacpp": "7114db76919cbb05",
    "ondemand": "fc26bd7833819517",
}
GOLDEN_1GPU_TIERED_HYBRIMOE = "54d0d508ed7a34c7"  # cpu_cache_capacity=4


@pytest.mark.parametrize("sharded_flag", [None, True])
class TestSingleGpuGolden:
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_generate_matches_golden(
        self, tiny_config, prompt_tokens, strategy_name, sharded_flag
    ):
        engine = build_engine(tiny_config, strategy_name, sharded_cache=sharded_flag)
        result = engine.generate(prompt_tokens, decode_steps=4)
        assert digest(result_fingerprint(result)) == GOLDEN_1GPU[strategy_name]

    def test_tiered_generate_matches_golden(
        self, tiny_config, prompt_tokens, sharded_flag
    ):
        engine = build_engine(
            tiny_config, "hybrimoe", cpu_cache_capacity=4, sharded_cache=sharded_flag
        )
        result = engine.generate(prompt_tokens, decode_steps=4)
        assert digest(result_fingerprint(result)) == GOLDEN_1GPU_TIERED_HYBRIMOE


class TestMultiGpuDispatch:
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_numerics_match_reference(self, tiny_config, prompt_tokens, strategy_name):
        reference = ReferenceMoEModel(tiny_config, seed=0)
        ref_hidden, _, _ = reference.forward(prompt_tokens)
        engine = build_engine(tiny_config, strategy_name, num_gpus=3)
        hidden, _ = engine._run_step(prompt_tokens, "prefill")
        np.testing.assert_allclose(hidden, ref_hidden, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("placement", ["round_robin", "layer_striped", "load_aware"])
    def test_invariants_hold_under_load(self, tiny_config, prompt_tokens, placement):
        engine = build_engine(
            tiny_config, "hybrimoe", num_gpus=4, placement=placement
        )
        engine.generate(prompt_tokens, decode_steps=4)
        engine.runtime.clock.validate()
        cache = engine.runtime.cache
        cache.validate()
        for shard in cache.shards:
            assert len(shard.dynamic_keys) <= shard.capacity

    def test_every_device_receives_work(self, tiny_config, prompt_tokens):
        engine = build_engine(tiny_config, "ondemand", num_gpus=2)
        engine.generate(prompt_tokens, decode_steps=4)
        for gpu in engine.runtime.clock.gpus:
            assert gpu.busy_time() > 0.0

    def test_aggregate_capacity_matches_unsharded(self, tiny_config):
        plain = build_engine(tiny_config, "ondemand")
        fleet = build_engine(tiny_config, "ondemand", num_gpus=4)
        assert fleet.runtime.cache.capacity == plain.runtime.cache.capacity

    def test_deterministic_under_fixed_seed(self, tiny_config, prompt_tokens):
        fingerprints = []
        for _ in range(2):
            engine = build_engine(
                tiny_config, "hybrimoe", num_gpus=4, placement="load_aware"
            )
            result = engine.generate(prompt_tokens, decode_steps=4)
            cache = engine.runtime.cache
            fingerprints.append(
                (
                    result_fingerprint(result),
                    cache.placement.assignments,
                    [sorted(s.resident_keys) for s in cache.shards],
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_no_prefetch_to_zero_capacity_shards(self, tiny_config, prompt_tokens):
        """A fleet larger than the slot budget leaves some shards at
        capacity 0; prefetches must never pay for transfers they can't
        land (the insert would be rejected)."""
        model = ReferenceMoEModel(tiny_config, seed=0)
        config = EngineConfig(
            cache_ratio=0.25,
            seed=0,
            profile_prompt_len=8,
            profile_decode_steps=2,
            prefetch_lookahead=1,
            num_gpus=8,
        )
        engine = InferenceEngine(
            model,
            make_strategy("hybrimoe", caching=False, prefetching=True),
            paper_testbed(),
            config,
        )
        cache = engine.runtime.cache
        zero_cap = [g for g, shard in enumerate(cache.shards) if shard.capacity == 0]
        assert zero_cap, "fixture should produce zero-capacity shards"
        engine.generate(prompt_tokens, decode_steps=4)
        for device in zero_cap:
            labels = [
                interval.label
                for interval in engine.runtime.clock.pcie_links[device].intervals
            ]
            assert not any(label.startswith("prefetch") for label in labels)

    def test_serving_on_fleet(self, tiny_config):
        serving = make_serving_engine(
            model="deepseek",
            strategy="hybrimoe",
            cache_ratio=0.25,
            num_layers=2,
            num_gpus=2,
            max_batch_size=4,
        )
        trace = serving_workload(
            num_requests=4, arrival_rate=8.0, decode_steps=3, seed=0
        )
        report = serving.serve_trace(trace)
        assert report.num_requests == 4
        hit_rates = serving.engine.runtime.cache.per_device_hit_rates()
        assert len(hit_rates) == 2
        serving.engine.runtime.clock.validate()


class TestConfigKnobs:
    def test_num_gpus_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig(num_gpus=0)

    def test_placement_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig(placement="alphabetical")

    def test_unsharded_fleet_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(num_gpus=2, sharded_cache=False)

    def test_factory_threads_topology(self):
        engine = make_engine(num_layers=2, num_gpus=2, placement="layer_striped")
        assert engine.runtime.num_gpus == 2
        assert engine.runtime.sharded is True
        assert engine.runtime.cache.placement.name == "layer_striped"
        assert len(engine.runtime.clock.gpus) == 2
        assert len(engine.runtime.clock.pcie_links) == 2
