"""Multi-GPU engine: 1-GPU goldens, fleet dispatch, work guard, knobs.

Two contracts are pinned here:

- **One GPU = one shard** — every engine runs the device-group path
  over a sharded cache; on one GPU that is a single group over a single
  shard. The engine used to carry a separate unsharded single-GPU path
  (the historical code, proven bit-identical to the 1-shard path by an
  equivalence class that compared the two); that path is deleted and
  its behaviour survives as golden constants recorded from it:
  ``GOLDEN_1GPU`` (``generate``, all five strategies),
  ``GOLDEN_1GPU_SERVING`` (a fused serving trace, records + sampled
  tokens) and the 1-GPU rows of ``GOLDEN_CORE``.
- **Fleet dispatch** — with several GPUs the numerics still match the
  reference model, every timeline/shard invariant holds, and runs are
  deterministic under a fixed seed.

``TestEngineCoreGolden`` pins the whole strategy x GPU-count x
memory-tier matrix — run, cache and clock state — to digests recorded
from the reference engine core (``engine_fast_path=False``) just before
it was deleted: the engine core that remains is held to what that one
computed.
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from repro.cache import sharded
from repro.cache.base import make_policy
from repro.engine import pipeline
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_engine, make_serving_engine, make_strategy
from repro.errors import ConfigError
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request
from repro.workloads.generator import serving_workload
from tests.conftest import SMALL_PROFILE

STRATEGIES = ["hybrimoe", "ktransformers", "adapmoe", "llamacpp", "ondemand"]


def build_engine(tiny_config, strategy_name, **overrides):
    model = ReferenceMoEModel(tiny_config, seed=0)
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


def digest(value):
    """Short stable hash of a nested tuple/dict of ints, floats and strs."""
    return hashlib.sha256(json.dumps(value, default=float).encode()).hexdigest()[:16]


#: ``digest(result_fingerprint(generate(prompt_tokens, decode_steps=4)))``
#: of the 1-GPU engine at commit f2cf8bc (unsharded == sharded there).
#: Every ``hybrimoe`` digest in this file was re-recorded once, when
#: HybriMoE stopped opening prefetch windows in prefill: its prefill
#: prefetches had been the only cache inserts a prefill made, so the
#: residency decode starts from moved. Every other strategy's row is
#: unchanged.
GOLDEN_1GPU = {
    "hybrimoe": "396d3a203bf9d148",
    "ktransformers": "4ebb02ab915ded97",
    "adapmoe": "c7678859b8eef1e4",
    "llamacpp": "7114db76919cbb05",
    "ondemand": "fc26bd7833819517",
}
GOLDEN_1GPU_TIERED_HYBRIMOE = "21329564eb3b0f96"  # cpu_cache_capacity=4
#: ``digest(serving_fingerprint(...))`` of ``test_serving_matches_golden``'s
#: three-request trace on the unsharded 1-GPU engine at commit da91b70,
#: the last one that had it (``sharded_cache=True`` gave the same there).
GOLDEN_1GPU_SERVING = "6b94de72020d6386"

#: ``(num_gpus, cpu_cache_capacity)``: one/two GPUs crossed with
#: two-tier memory and a constrained DRAM tier (so spills and disk
#: reads actually happen).
PLATFORMS = {
    "1gpu-two-tier": (1, None),
    "2gpu-two-tier": (2, None),
    "1gpu-three-tier": (1, 4),
    "2gpu-three-tier": (2, 4),
}

#: ``digest`` of ``(result_fingerprint, cache_fingerprint,
#: clock_fingerprint)`` after ``generate(prompt_tokens, decode_steps=4)``,
#: recorded at commit 9c58829 from ``EngineConfig(engine_fast_path=False)``
#: — the reference engine core, deleted by the next commit. (The fast
#: core gave the same 60 digests there.) The three-tier rows of the
#: strategies that evict from the GPU cache or prefetch (hybrimoe,
#: adapmoe, ondemand) were re-recorded twice, with
#: ``GOLDEN_1GPU_TIERED_HYBRIMOE`` moving with them: once when the DRAM
#: tier became lazily exclusive (shadows evicted first, GPU evictions
#: demoted over PCIe, usable once the copy lands) and a layer started
#: waiting on an in-flight staging instead of re-reading it; once when
#: a prefetch staging began taking its DRAM slot as it is reserved and
#: demotions moved to each link's device-to-host lane.
GOLDEN_CORE = {
    "hybrimoe": {
        "1gpu-two-tier": ("396d3a203bf9d148", "696bb04e4ab82640", "8ffcd1d17cf6274b"),
        "2gpu-two-tier": ("a71b7a7525c5a208", "d18453bf24a428a4", "377797a68a8c58f5"),
        "1gpu-three-tier": ("21329564eb3b0f96", "5cd3c8a7c0436657", "1aef05e821526489"),
        "2gpu-three-tier": ("0717cd4e148060de", "7dbf125b9d2a25b5", "182d065adb845169"),
    },
    "ktransformers": {
        "1gpu-two-tier": ("4ebb02ab915ded97", "137fbb764b1f6f0e", "6a28a3ebd4155958"),
        "2gpu-two-tier": ("895d566307de6512", "137fbb764b1f6f0e", "20b6220967961e38"),
        "1gpu-three-tier": ("cdf093434a5b502f", "3b8a1ac1957c5d05", "2be6ca3d2bade3c6"),
        "2gpu-three-tier": ("9fbd4a0d2705b9ed", "a5bbdc1d99a2c502", "fda3f024dcdff8ed"),
    },
    "adapmoe": {
        "1gpu-two-tier": ("c7678859b8eef1e4", "4d7d1d3d9f8fdf87", "4b1c1ae0c06b017f"),
        "2gpu-two-tier": ("dedfb082cab06841", "5e9fe8303e7ea8ba", "5c89757a9c0f0526"),
        "1gpu-three-tier": ("8081255511ac64b7", "8f061152a3a61a0b", "b32db2110a3e6933"),
        "2gpu-three-tier": ("4ef08a3cf4cdb9c1", "52f7327a60cf58fb", "30b5a14bba4d13a5"),
    },
    "llamacpp": {
        "1gpu-two-tier": ("7114db76919cbb05", "8ff568246a7c0877", "ef0a6a4016f120fb"),
        "2gpu-two-tier": ("65101b825597e032", "8ff568246a7c0877", "da27dc58ef9d9b7b"),
        "1gpu-three-tier": ("26606601a3959e88", "8f5572d21abfe873", "90ec99098860c4b8"),
        "2gpu-three-tier": ("e138b6385d8517e7", "e40400a3858dfc09", "d18b7ce6de2877b3"),
    },
    "ondemand": {
        "1gpu-two-tier": ("fc26bd7833819517", "a12d91a0729c7c7b", "782b8b7656e2b9e1"),
        "2gpu-two-tier": ("b111e9cb2c7af7ea", "3d9d45aab720b439", "2f0d661714786ce2"),
        "1gpu-three-tier": ("fb868fab06437379", "bbd622eb27bbc74b", "43d17cd5cb235c22"),
        "2gpu-three-tier": ("74310f72a2ea01a3", "e5d4819fc1b81b3e", "4c30168879d61c7f"),
    },
}


def serving_fingerprint(report, requests):
    """Every request record, the cache totals and the sampled tokens."""
    return (
        [
            (r.request_id, r.prompt_len, r.decode_tokens, r.status, r.arrival_time,
             r.prefill_start, r.first_token_time, r.finish_time, list(r.tbt_values))
            for r in report.requests
        ],
        report.total_hits,
        report.total_misses,
        [[int(t) for t in r.output_tokens] for r in requests],
    )


class TestSingleGpuGolden:
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_generate_matches_golden(self, tiny_config, prompt_tokens, strategy_name):
        engine = build_engine(tiny_config, strategy_name)
        result = engine.generate(prompt_tokens, decode_steps=4)
        assert digest(result_fingerprint(result)) == GOLDEN_1GPU[strategy_name]

    def test_tiered_generate_matches_golden(self, tiny_config, prompt_tokens):
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=4)
        result = engine.generate(prompt_tokens, decode_steps=4)
        assert digest(result_fingerprint(result)) == GOLDEN_1GPU_TIERED_HYBRIMOE

    def test_serving_matches_golden(self, tiny_config):
        """Fused serving steps (three overlapping requests) on the one
        engine reproduce the deleted unsharded path's records and
        sampled tokens."""
        engine = build_engine(tiny_config, "hybrimoe")
        requests = [
            Request(
                request_id=i,
                prompt_tokens=np.arange(4) + i,
                decode_steps=3,
                arrival_time=0.002 * i,
            )
            for i in range(3)
        ]
        report = ServingEngine(engine).serve(requests)
        assert digest(serving_fingerprint(report, requests)) == GOLDEN_1GPU_SERVING


def cache_fingerprint(cache):
    """Residency and counters of every tier, order-normalised."""
    stats = cache.stats
    fingerprint = [
        tuple(sorted(getattr(cache, "gpu_tier", cache).resident_keys)),
        (stats.hits, stats.misses, stats.insertions, stats.evictions,
         stats.rejected_inserts),
        tuple(sorted(stats.per_layer_hits.items())),
        tuple(sorted(stats.per_layer_misses.items())),
    ]
    cpu_tier = getattr(cache, "cpu_tier", None)
    if cpu_tier is not None:
        fingerprint.append(tuple(sorted(cpu_tier.resident_keys)))
        fingerprint.append(
            (cpu_tier.stats.hits, cpu_tier.stats.misses,
             cpu_tier.stats.insertions, cpu_tier.stats.evictions)
        )
    return tuple(fingerprint)


def clock_fingerprint(clock):
    """Every timeline's committed intervals plus the derived frontiers.

    A device-to-host lane enters only once it carries a demotion, so
    the digests of runs that demote nothing predate the lanes unchanged.
    """
    timelines = [clock.cpu] + [
        tl for pair in zip(clock.gpus, clock.pcie_links) for tl in pair
    ]
    if clock.disk is not None:
        timelines.append(clock.disk)
    fingerprint = (
        tuple(
            tuple((i.start, i.finish, i.label) for i in tl.intervals)
            for tl in timelines
        ),
        tuple(tl.available_at for tl in timelines),
        clock.compute_frontier,
        max(tl.available_at for tl in timelines),
        clock.min_pcie_available_at,
    )
    demotions = tuple(
        (tl.name, tuple((i.start, i.finish, i.label) for i in tl.intervals))
        for tl in clock.d2h_links
        if tl.intervals
    )
    return fingerprint + (demotions,) if demotions else fingerprint


def build_platform_engine(tiny_config, strategy_name, platform):
    num_gpus, cpu_capacity = PLATFORMS[platform]
    return build_engine(
        tiny_config,
        strategy_name,
        num_gpus=num_gpus,
        cpu_cache_capacity=cpu_capacity,
    )


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("strategy_name", STRATEGIES)
class TestEngineCoreGolden:
    def test_run_cache_and_clock_match_golden(
        self, tiny_config, prompt_tokens, strategy_name, platform
    ):
        engine = build_platform_engine(tiny_config, strategy_name, platform)
        result = engine.generate(prompt_tokens, decode_steps=4)
        runtime = engine.runtime
        assert (
            digest(result_fingerprint(result)),
            digest(cache_fingerprint(runtime.cache)),
            digest(clock_fingerprint(runtime.clock)),
        ) == GOLDEN_CORE[strategy_name][platform]
        runtime.clock.validate()
        runtime.cache.validate()

    def test_hidden_states_equal_reference_model(
        self, tiny_config, prompt_tokens, strategy_name, platform
    ):
        """Scheduled execution — whichever device computes each expert,
        however the outputs are recombined — is the reference forward
        pass bit-for-bit."""
        reference = ReferenceMoEModel(tiny_config, seed=0)
        ref_hidden, _, state = reference.forward(prompt_tokens)
        engine = build_platform_engine(tiny_config, strategy_name, platform)
        hidden, _ = engine._run_step(prompt_tokens, "prefill")
        np.testing.assert_array_equal(hidden, ref_hidden)
        # Single-token decode takes its own recombination shortcut.
        for _ in range(3):
            token = np.array([reference.greedy_next_token(ref_hidden[-1])])
            ref_hidden, _, state = reference.forward(token, state)
            hidden, _ = engine._run_step(token, "decode")
            np.testing.assert_array_equal(hidden, ref_hidden)


class TestMultiGpuDispatch:
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_numerics_match_reference(self, tiny_config, prompt_tokens, strategy_name):
        reference = ReferenceMoEModel(tiny_config, seed=0)
        ref_hidden, _, _ = reference.forward(prompt_tokens)
        engine = build_engine(tiny_config, strategy_name, num_gpus=3)
        hidden, _ = engine._run_step(prompt_tokens, "prefill")
        np.testing.assert_array_equal(hidden, ref_hidden)

    @pytest.mark.parametrize("num_gpus", [2, 3, 4])
    def test_invariants_hold_under_load(self, tiny_config, prompt_tokens, num_gpus):
        engine = build_engine(tiny_config, "hybrimoe", num_gpus=num_gpus)
        engine.generate(prompt_tokens, decode_steps=4)
        engine.runtime.clock.validate()
        cache = engine.runtime.cache
        cache.validate()
        for shard in cache.shards:
            assert len(shard.dynamic_keys) <= shard.capacity

    @pytest.mark.parametrize("num_gpus", [2, 3, 4])
    def test_every_device_receives_work(self, tiny_config, prompt_tokens, num_gpus):
        engine = build_engine(tiny_config, "ondemand", num_gpus=num_gpus)
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
            engine = build_engine(tiny_config, "hybrimoe", num_gpus=4)
            result = engine.generate(prompt_tokens, decode_steps=4)
            cache = engine.runtime.cache
            fingerprints.append(
                (
                    result_fingerprint(result),
                    [sorted(s.resident_keys) for s in cache.shards],
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_no_prefetch_to_zero_capacity_shards(self, tiny_config, prompt_tokens):
        """A fleet larger than the slot budget leaves some shards at
        capacity 0; prefetches must never pay for transfers they can't
        land (the insert would be rejected)."""
        model = ReferenceMoEModel(tiny_config, seed=0)
        config = EngineConfig(cache_ratio=0.25, seed=0, num_gpus=8)
        engine = InferenceEngine(
            model,
            make_strategy("hybrimoe", caching=False, prefetching=True, lookahead=1),
            paper_testbed(),
            config,
            **SMALL_PROFILE,
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

    @pytest.mark.parametrize("num_gpus", [1, 2])
    def test_zero_capacity_cache_issues_no_prefetch(self, prompt_tokens, num_gpus):
        """With no cache budget at all every shard has capacity 0, on
        one GPU as on a fleet: a prefetching strategy must pay for no
        transfer it cannot land, which makes AdapMoE step-for-step the
        on-demand baseline. (The deleted unsharded 1-GPU path had no
        such skip and issued 234 dead prefetches here.)"""
        rows = {}
        for strategy_name in ("adapmoe", "ondemand"):
            engine = make_engine(
                model="deepseek",
                strategy=strategy_name,
                num_layers=4,
                cache_ratio=0.0,
                num_gpus=num_gpus,
            )
            result = engine.generate(prompt_tokens, decode_steps=12)
            assert engine.runtime.prefetch_issued == 0
            rows[strategy_name] = [
                (step.start, step.end, step.hits, step.misses)
                for step in (result.prefill, *result.decode_steps)
            ]
        assert rows["adapmoe"] == rows["ondemand"]

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


@pytest.mark.parametrize("cpu_cache_capacity", [None, 4])
@pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
def test_layer_routes_each_expert_once(
    tiny_config, prompt_tokens, monkeypatch, num_gpus, cpu_cache_capacity
):
    """Work guard: an activated expert's home device is resolved twice
    per layer — by its ``cache.access`` and by the device grouping —
    and once more per prefetch issued; every other per-group operation
    (residency, lock, inserts, refills) talks to the group's shard. On
    one GPU the home is device 0 and the home rule is never evaluated."""
    engine = build_engine(
        tiny_config,
        "hybrimoe",
        num_gpus=num_gpus,
        cpu_cache_capacity=cpu_cache_capacity,
    )
    cache = engine.runtime.cache
    manager = getattr(cache, "gpu_tier", cache)
    calls = Counter()

    def spy(owner, name, label=None):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label or name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    # The home rule inside the manager, and the device grouping's own call.
    spy(sharded, "home_device", "rule")
    spy(pipeline, "home_device", "grouped")
    spy(manager, "device_of")
    spy(manager, "access")
    engine.generate(prompt_tokens, decode_steps=16)

    activated = calls["access"]  # one access per activated expert per layer
    assert activated >= 17 * tiny_config.num_layers * tiny_config.num_activated_experts
    if num_gpus == 1:
        assert calls["rule"] + calls["grouped"] == 0
    else:
        resolved = calls["device_of"] + calls["grouped"]
        assert activated <= resolved <= 2 * activated + engine.runtime.prefetch_issued


@pytest.mark.parametrize("num_gpus", [1, 2, 3, 4])
def test_device_groups_split_a_layer_by_home(num_gpus):
    """The pipeline's grouping puts every ``(expert, load)`` pair on
    ``expert % N`` once: devices ascending, experts ascending within a
    group, and nothing dropped or repeated."""
    manager = sharded.CacheSpec(8, lambda: make_policy("lru")).build_sharded(num_gpus)
    activated = tuple((expert, 1 + expert % 3) for expert in (0, 1, 2, 3, 5, 6, 9, 14))
    groups = list(pipeline.StepPipeline._device_groups(manager, activated))
    devices = [device for device, _ in groups]
    assert devices == sorted(set(devices))
    for device, group in groups:
        assert group
        assert [expert for expert, _ in group] == sorted(expert for expert, _ in group)
        assert all(expert % num_gpus == device for expert, _ in group)
    assert sorted(pair for _, group in groups for pair in group) == list(activated)


@pytest.mark.parametrize("strategy_name", ["hybrimoe", "adapmoe"])
@pytest.mark.parametrize("num_gpus", [1, 2, 3])
def test_inflight_scan_is_skipped_only_when_empty(
    prompt_tokens, monkeypatch, num_gpus, strategy_name
):
    """The pipeline skips a group's in-flight scan when the device's
    PCIe link is idle at ``moe_start``. Every context it hands out must
    carry what the full scan over the GPU landings in ``clock.landing`` finds."""
    engine = make_engine(
        model="deepseek",
        strategy=strategy_name,
        num_layers=4,
        cache_ratio=0.25,
        num_gpus=num_gpus,
    )
    runtime = engine.runtime
    plan_and_execute = engine.pipeline._plan_and_execute
    seen = Counter()

    def checked(ctx, shard):
        scanned = tuple(
            (expert, offset)
            for expert, _ in ctx.activated
            if expert in ctx.cached_experts
            and (
                offset := runtime.clock.landing.get(((ctx.layer, expert), "gpu"), 0.0)
                - ctx.moe_start
            )
            > 0.0
        )
        assert ctx.inflight_offsets == scanned
        seen["idle" if ctx.pcie_backlog == 0.0 else "busy"] += 1
        seen["in flight"] += bool(scanned)
        return plan_and_execute(ctx, shard)

    monkeypatch.setattr(engine.pipeline, "_plan_and_execute", checked)
    engine.generate(prompt_tokens, decode_steps=16)
    assert seen["idle"] and seen["busy"] and seen["in flight"]


class TestConfigKnobs:
    def test_num_gpus_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig(num_gpus=0)

    @pytest.mark.parametrize("placement", ["alphabetical", "load_aware", "layer_striped"])
    def test_round_robin_is_the_only_placement(self, placement):
        """``expert % num_gpus`` is the one home rule: any other
        placement is a one-line error."""
        with pytest.raises(ConfigError, match="placement must be 'round_robin'") as err:
            EngineConfig(placement=placement)
        assert "\n" not in str(err.value)
        assert EngineConfig(placement="round_robin") == EngineConfig()

    def test_factory_threads_topology(self):
        engine = make_engine(num_layers=2, num_gpus=2)
        assert engine.runtime.num_gpus == 2
        assert len(engine.runtime.clock.gpus) == 2
        assert len(engine.runtime.clock.pcie_links) == 2
