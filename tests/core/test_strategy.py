"""HybriMoE strategy: toggles, cache construction and refill behaviour."""

import numpy as np
import pytest

from repro.baselines.adapmoe import AdapMoEStrategy
from repro.baselines.ktransformers import KTransformersStrategy
from repro.baselines.llamacpp import LlamaCppStrategy
from repro.baselines.ondemand import OnDemandStrategy
from repro.cache.mrs import MRSPolicy
from repro.core.hybrid_scheduler import SchedulerConfig
from repro.core.strategy import PREFETCH_ADMIT_MARGIN, HybriMoEStrategy
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.errors import ConfigError
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from tests.conftest import SMALL_PROFILE


@pytest.fixture
def engine_factory(tiny_config):
    def build(**strategy_kwargs):
        model = ReferenceMoEModel(tiny_config, seed=0)
        strategy = HybriMoEStrategy(**strategy_kwargs)
        config = EngineConfig(cache_ratio=0.5, seed=0)
        return InferenceEngine(model, strategy, paper_testbed(), config, **SMALL_PROFILE)

    return build


class TestNames:
    def test_full_name(self):
        assert HybriMoEStrategy().name == "hybrimoe"

    def test_partial_names(self):
        assert HybriMoEStrategy(True, False, False).name == "hybrimoe[sched]"
        assert (
            HybriMoEStrategy(False, False, False).name == "hybrimoe[baseline]"
        )


class TestPolicyArguments:
    """The planner search and the lookahead are HybriMoE's arguments."""

    @pytest.mark.parametrize("prefetching", [True, False])
    @pytest.mark.parametrize("lookahead", [0, -1])
    def test_lookahead_below_one_rejected_at_construction(self, lookahead, prefetching):
        with pytest.raises(ConfigError, match="lookahead must be >= 1") as err:
            HybriMoEStrategy(prefetching=prefetching, lookahead=lookahead)
        assert "\n" not in str(err.value)

    def test_builds_and_publishes_its_planner(self, engine_factory):
        planner = SchedulerConfig(allow_cpu_steal=False)
        engine = engine_factory(scheduler=planner)
        assert engine.runtime.scheduler.config is planner
        assert engine.strategy._prefetcher.scheduler is engine.runtime.scheduler

    @pytest.mark.parametrize("lookahead", [1, 2])
    def test_scratch_ring_sized_by_lookahead(self, engine_factory, lookahead):
        engine = engine_factory(caching=False, prefetching=True, lookahead=lookahead)
        k = engine.runtime.model_config.num_activated_experts
        assert engine.runtime.cache.capacity == 2 * k * lookahead

    @pytest.mark.parametrize(
        "strategy", [KTransformersStrategy, AdapMoEStrategy, LlamaCppStrategy, OnDemandStrategy]
    )
    def test_baselines_build_no_planner(self, tiny_config, strategy):
        engine = InferenceEngine(
            ReferenceMoEModel(tiny_config, seed=0), strategy(), **SMALL_PROFILE
        )
        assert engine.runtime.scheduler is None
        engine.generate(np.arange(8), decode_steps=1)


class TestCacheConstruction:
    def test_caching_true_builds_mrs(self, engine_factory):
        engine = engine_factory(caching=True)
        assert isinstance(engine.runtime.cache.shards[0].policy, MRSPolicy)
        assert engine.runtime.cache.capacity == engine.runtime.capacity
        assert len(engine.runtime.cache.shards[0].pinned_keys) == 0

    def test_caching_false_pins_by_frequency(self, engine_factory):
        engine = engine_factory(caching=False, prefetching=False)
        cache = engine.runtime.cache
        assert cache.capacity == 0
        assert len(cache.shards[0].pinned_keys) == engine.runtime.capacity

    def test_prefetch_without_caching_gets_scratch(self, engine_factory):
        engine = engine_factory(caching=False, prefetching=True)
        cache = engine.runtime.cache
        assert cache.capacity > 0  # the scratch ring
        assert len(cache.shards[0].pinned_keys) == engine.runtime.capacity

    def test_mrs_primed_from_warmup(self, engine_factory):
        engine = engine_factory(caching=True)
        policy = engine.runtime.cache.shards[0].policy
        experts = range(engine.runtime.model_config.num_routed_experts)
        # warmup scores flowed into priorities
        assert any(policy.priority((0, expert)) > 0 for expert in experts)

    def test_warm_fill_uses_frequency_ranking(self, engine_factory):
        engine = engine_factory(caching=True)
        ranking = engine.runtime.frequency_ranking()
        expected = set(ranking[: engine.runtime.capacity])
        assert engine.runtime.cache.resident_keys == expected


class TestToggleBehaviour:
    def test_baseline_matches_ktransformers_latency(self, tiny_config):
        """All toggles off must reproduce the kTransformers baseline."""
        results = {}
        for name, strategy in (
            ("baseline", HybriMoEStrategy(False, False, False)),
            ("ktrans", KTransformersStrategy()),
        ):
            model = ReferenceMoEModel(tiny_config, seed=0)
            config = EngineConfig(cache_ratio=0.5, seed=0)
            engine = InferenceEngine(model, strategy, paper_testbed(), config, **SMALL_PROFILE)
            results[name] = engine.generate(np.arange(16), decode_steps=4)
        assert results["baseline"].ttft == pytest.approx(results["ktrans"].ttft)
        assert results["baseline"].mean_tbt == pytest.approx(
            results["ktrans"].mean_tbt
        )

    def test_scheduling_off_produces_fixed_plans(self, engine_factory):
        engine = engine_factory(scheduling=False, prefetching=False, caching=False)
        result = engine.generate(np.arange(16), decode_steps=2)
        assert result.mean_tbt > 0

    def test_prefetch_off_never_reserves_prefetch(self, engine_factory):
        engine = engine_factory(prefetching=False)
        engine.generate(np.arange(16), decode_steps=2)
        labels = [iv.label for iv in engine.runtime.clock.pcie.intervals]
        assert not any("prefetch" in label for label in labels)

    def test_prefetch_on_reserves_prefetch(self, engine_factory):
        engine = engine_factory(prefetching=True)
        engine.generate(np.arange(16), decode_steps=4)
        labels = [iv.label for iv in engine.runtime.clock.pcie.intervals]
        assert any("prefetch" in label for label in labels)

    def test_refill_only_during_decode(self, engine_factory):
        engine = engine_factory(scheduling=False, prefetching=False, caching=True)
        engine.generate(np.arange(16), decode_steps=0)
        labels = [iv.label for iv in engine.runtime.clock.pcie.intervals]
        assert not any("refill" in label for label in labels)

    def test_decode_refills_appear(self, tiny_config):
        # Low ratio so decode misses exist to refill.
        model = ReferenceMoEModel(tiny_config, seed=0)
        strategy = HybriMoEStrategy(scheduling=False, prefetching=False, caching=True)
        config = EngineConfig(cache_ratio=0.25, seed=0)
        engine = InferenceEngine(model, strategy, paper_testbed(), config, **SMALL_PROFILE)
        engine.generate(np.arange(16), decode_steps=8)
        labels = [iv.label for iv in engine.runtime.clock.pcie.intervals]
        assert any("refill" in label for label in labels)



def _prefetch_rounds(engine, check, decode_steps=12):
    """Run ``generate``, calling ``check(ctx, decisions, requests)`` as
    each ``prefetch_requests`` call returns — ``decisions`` are what
    the prefetcher selected, and the cache is still in the state the
    strategy decided on. Returns the number of calls."""
    strategy = engine.strategy
    select = strategy._prefetcher.select
    prefetch_requests = strategy.prefetch_requests
    selected = []
    calls = 0

    def recording_select(*args, **kwargs):
        selected.append(select(*args, **kwargs))
        return selected[-1]

    def checking_requests(ctx, *args, **kwargs):
        nonlocal calls
        selected.clear()
        requests = prefetch_requests(ctx, *args, **kwargs)
        (decisions,) = selected
        check(ctx, decisions, requests)
        calls += 1
        return requests

    strategy._prefetcher.select = recording_select
    strategy.prefetch_requests = checking_requests
    engine.generate(np.arange(24), decode_steps=decode_steps)
    return calls


def _prefetch_engine(tiny_config, strategy, cache_ratio, **config):
    model = ReferenceMoEModel(tiny_config.with_layers(5), seed=0)
    config = EngineConfig(cache_ratio=cache_ratio, seed=0, **config)
    return InferenceEngine(model, strategy, paper_testbed(), config, **SMALL_PROFILE)


class TestPrefetchRequests:
    """Which selected prefetch decisions become transfer requests.

    A decision is requested into the GPU cache when it passes admission
    with :data:`PREFETCH_ADMIT_MARGIN`. Failing that, on tiered memory a
    spilled expert is promoted into DRAM alone — whenever the DRAM tier
    has slots, whatever its policy thinks of the victim. Every other
    decision is dropped.
    """

    @staticmethod
    def _check_admission(cache, tiered):
        dram_requests = []

        def check(ctx, decisions, requests):
            keys = [(d.layer, d.expert) for d in decisions]
            targets = {tuple(r[:2]): (r[2] if len(r) > 2 else "gpu") for r in requests}
            # Requests keep the decisions' rank order, each key once.
            assert len(targets) == len(requests)
            assert list(targets) == [key for key in keys if key in targets]
            for key in keys:
                gpu_ok = cache.would_admit(key, margin=PREFETCH_ADMIT_MARGIN)
                promotable = (
                    tiered
                    and cache.is_spilled(key)
                    and cache.cpu_tier.capacity > 0
                    and key not in cache.cpu_tier
                )
                want = "gpu" if gpu_ok else "dram" if promotable else None
                assert targets.get(key) == want, (ctx.layer, key)
            dram_requests.extend(k for k, t in targets.items() if t == "dram")

        return check, dram_requests

    @pytest.mark.parametrize("num_gpus", [1, 2])
    @pytest.mark.parametrize("cpu_cache_capacity", [2, 8])
    @pytest.mark.parametrize("policy", ["lru", "lfu", "mrs"])
    def test_tiered_requests(self, tiny_config, policy, cpu_cache_capacity, num_gpus):
        engine = _prefetch_engine(
            tiny_config, HybriMoEStrategy(), 0.25, num_gpus=num_gpus,
            cpu_cache_capacity=cpu_cache_capacity, cpu_cache_policy=policy,
        )
        check, dram_requests = self._check_admission(engine.runtime.cache, tiered=True)
        assert _prefetch_rounds(engine, check) > 0
        assert dram_requests  # the DRAM-only branch was exercised

    @pytest.mark.parametrize("num_gpus", [1, 2])
    @pytest.mark.parametrize("cache_ratio", [0.25, 0.5])
    def test_untiered_requests_only_gpu_admissions(self, tiny_config, cache_ratio, num_gpus):
        engine = _prefetch_engine(
            tiny_config, HybriMoEStrategy(), cache_ratio, num_gpus=num_gpus
        )
        check, dram_requests = self._check_admission(engine.runtime.cache, tiered=False)
        assert _prefetch_rounds(engine, check) > 0
        assert dram_requests == []

    @pytest.mark.parametrize("cpu_cache_capacity", [None, 4])
    def test_without_caching_every_decision_of_the_next_layer(
        self, tiny_config, cpu_cache_capacity
    ):
        """Prefetches land in the scratch ring: one layer ahead only, no
        admission check, no DRAM-only promotion."""
        engine = _prefetch_engine(
            tiny_config, HybriMoEStrategy(caching=False), 0.25,
            cpu_cache_capacity=cpu_cache_capacity,
        )

        def check(ctx, decisions, requests):
            assert all(d.layer == ctx.layer + 1 for d in decisions)
            assert requests == [(d.layer, d.expert) for d in decisions]

        assert _prefetch_rounds(engine, check) > 0
