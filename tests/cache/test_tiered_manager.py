"""TieredCacheManager: tier semantics, facade forwarding, statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import make_policy
from repro.cache.manager import ExpertCache
from repro.cache.placement import make_placement
from repro.cache.sharded import CacheSpec
from repro.cache.tiered import TieredCacheManager
from repro.errors import CacheError


def build_tiered(gpu_capacity=2, cpu_capacity=3, cpu_policy="lru"):
    gpu = ExpertCache(gpu_capacity, make_policy("lru"))
    cpu = ExpertCache(cpu_capacity, make_policy(cpu_policy))
    return TieredCacheManager(gpu, cpu)


class TestTierSemantics:
    def test_spilled_means_resident_nowhere(self):
        tiered = build_tiered()
        tiered.insert((0, 1))             # GPU tier
        tiered.promote_to_dram((0, 2))    # DRAM tier
        assert not tiered.is_spilled((0, 1))
        assert not tiered.is_spilled((0, 2))
        assert tiered.is_spilled((0, 3))
        assert tiered.spilled_experts(0, range(5)) == frozenset({0, 3, 4})

    def test_membership_means_gpu_tier_only(self):
        tiered = build_tiered()
        tiered.promote_to_dram((0, 2))
        assert (0, 2) not in tiered
        assert (0, 2) in tiered.cpu_tier
        tiered.insert((0, 2))
        assert (0, 2) in tiered

    def test_promotion_evicts_by_dram_policy(self):
        tiered = build_tiered(cpu_capacity=2)
        assert tiered.promote_to_dram((0, 0)) == []
        assert tiered.promote_to_dram((0, 1)) == []
        # LRU: (0, 0) is the oldest DRAM resident.
        assert tiered.promote_to_dram((0, 2)) == [(0, 0)]
        assert tiered.is_spilled((0, 0))

    def test_dram_eviction_of_gpu_resident_key_is_legal(self):
        tiered = build_tiered(cpu_capacity=1)
        tiered.insert((0, 5))
        tiered.promote_to_dram((0, 5))
        tiered.promote_to_dram((0, 6))   # evicts the (0, 5) DRAM copy
        assert (0, 5) in tiered          # GPU copy untouched
        assert (0, 5) not in tiered.cpu_tier
        assert not tiered.is_spilled((0, 5))

    def test_dram_would_admit(self):
        tiered = build_tiered(cpu_capacity=1)
        assert tiered.dram_would_admit((0, 1))
        tiered.promote_to_dram((0, 1))
        assert not tiered.dram_would_admit((0, 1))  # already resident
        assert tiered.dram_would_admit((0, 2))      # evict-and-admit
        zero = build_tiered(cpu_capacity=0)
        assert not zero.dram_would_admit((0, 1))

    def test_dram_tier_rejects_pinned_keys(self):
        gpu = ExpertCache(2, make_policy("lru"))
        cpu = ExpertCache(2, make_policy("lru"), pinned=[(0, 0)])
        with pytest.raises(CacheError):
            TieredCacheManager(gpu, cpu)


class TestStats:
    def test_cpu_tier_counts_only_gpu_misses(self):
        tiered = build_tiered()
        tiered.insert((0, 1))
        tiered.promote_to_dram((0, 2))
        assert tiered.access((0, 1)) is True    # GPU hit: DRAM untouched
        assert tiered.access((0, 2)) is False   # GPU miss, DRAM hit
        assert tiered.access((0, 3)) is False   # GPU miss, DRAM miss
        assert (tiered.stats.hits, tiered.stats.misses) == (1, 2)
        cpu_stats = tiered.tier_stats()["cpu"]
        assert (cpu_stats.hits, cpu_stats.misses) == (1, 1)
        rates = tiered.per_tier_hit_rates()
        assert rates["gpu"] == pytest.approx(1 / 3)
        assert rates["cpu"] == pytest.approx(0.5)

    def test_facade_stats_are_gpu_tier_stats(self):
        tiered = build_tiered()
        tiered.access((0, 7))
        assert tiered.stats is tiered.gpu_tier.stats


class TestFacadeForwarding:
    def test_gpu_surface_forwards(self):
        tiered = build_tiered()
        tiered.insert((0, 1))
        tiered.insert_if_better((1, 2))
        assert tiered.would_admit((1, 3)) is False  # full, LRU never admits
        assert tiered.cached_experts_of_layer(0) == {1}
        assert tiered.gpu_tier.resident_keys == {(0, 1), (1, 2)}
        tiered.lock([(0, 1)])
        assert tiered.gpu_tier.locked_keys == {(0, 1)}
        tiered.unlock_all()
        assert tiered.gpu_tier.locked_keys == set()
        tiered.validate()

    def test_sharded_gpu_tier_passthrough(self):
        spec = CacheSpec(4, lambda: make_policy("lru"))
        manager = spec.build_sharded(make_placement("round_robin", 2))
        tiered = TieredCacheManager(manager, ExpertCache(2, make_policy("lru")))
        assert tiered.shards is manager.shards
        assert len(tiered.per_device_hit_rates()) == 2
        key = (0, 1)
        assert tiered.device_of(key) == manager.device_of(key)
        tiered.insert(key)
        assert tiered.device_experts_of_layer(0, tiered.device_of(key)) == {1}
        tiered.validate()

    def test_observe_scores_reaches_both_tiers(self):
        import numpy as np

        gpu = ExpertCache(2, make_policy("mrs", alpha=0.5, top_p=2))
        cpu = ExpertCache(2, make_policy("mrs", alpha=0.5, top_p=2))
        tiered = TieredCacheManager(gpu, cpu)
        scores = np.array([0.9, 0.05, 0.05])
        tiered.observe_scores(0, scores)
        assert gpu.policy.priority((0, 0)) > 0
        assert cpu.policy.priority((0, 0)) > 0


_KEYS = st.tuples(st.integers(0, 2), st.integers(0, 9))


class TestSpilledExpertsSetForm:
    @given(
        history=st.lists(
            st.tuples(st.sampled_from(["insert", "evict", "promote", "access"]), _KEYS),
            max_size=50,
        ),
        num_devices=st.integers(1, 3),
        placement=st.sampled_from(["round_robin", "layer_striped", "load_aware"]),
        layer=st.integers(0, 2),
        # Arbitrary iterables: duplicates, ids resident nowhere (>= 10).
        experts=st.lists(st.integers(0, 12), max_size=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_key_is_spilled_filter(
        self, history, num_devices, placement, layer, experts
    ):
        """``spilled_experts`` answers from the tiers' per-layer indexes;
        on any insert/evict/promote history it is the per-key
        ``is_spilled`` filter — including load-aware keys no operation
        ever routed, which must stay unrouted."""
        spec = CacheSpec(4, lambda: make_policy("lru"))
        manager = spec.build_sharded(make_placement(placement, num_devices))
        tiered = TieredCacheManager(manager, ExpertCache(3, make_policy("lru")))
        for op, key in history:
            if op == "insert":
                tiered.insert(key)
            elif op == "promote":
                tiered.promote_to_dram(key)
            elif op == "access":
                tiered.access(key)
            elif key in tiered:
                manager.shard_of(key).evict_explicit(key)
        routed = getattr(manager.placement, "assignments", None)
        expected = frozenset(e for e in experts if tiered.is_spilled((layer, e)))
        assert tiered.spilled_experts(layer, experts) == expected
        assert tiered.spilled_experts(layer, (e for e in experts)) == expected
        assert getattr(manager.placement, "assignments", None) == routed
        tiered.validate()
