"""TieredCacheManager: tier semantics, facade forwarding, statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import available_policies, make_policy
from repro.cache.manager import ExpertCache
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

    def test_full_dram_evicts_a_shadow_before_dram_only_keys(self):
        tiered = build_tiered(gpu_capacity=2, cpu_capacity=3)
        tiered.promote_to_dram((0, 0))   # DRAM-only, least recently used
        tiered.insert((0, 1))
        tiered.insert((0, 2))
        tiered.promote_to_dram((0, 2))   # shadows, oldest first
        tiered.promote_to_dram((0, 1))
        assert list(tiered._shadows) == [(0, 2), (0, 1)]
        assert tiered.promote_to_dram((0, 3)) == [(0, 2)]
        assert tiered.promote_to_dram((0, 4)) == [(0, 1)]
        # No shadow left: the DRAM policy picks among DRAM-only keys.
        assert tiered.promote_to_dram((0, 5)) == [(0, 0)]
        tiered.validate()

    def test_gpu_eviction_queues_a_demotion(self):
        """The evicted key is spilled until the engine's copy lands."""
        tiered = build_tiered(gpu_capacity=1, cpu_capacity=2)
        tiered.insert((0, 1))
        tiered.promote_to_dram((0, 2))
        assert tiered.insert((0, 3)) == [(0, 1)]   # GPU LRU evicts (0, 1)
        assert tiered.demotions == [((0, 1), 0)]
        assert (0, 1) not in tiered.cpu_tier and tiered.is_spilled((0, 1))
        tiered.validate()

    def test_no_demotion_without_a_dram_tier(self):
        tiered = build_tiered(gpu_capacity=1, cpu_capacity=0)
        tiered.insert((0, 1))
        tiered.insert((0, 3))
        assert tiered.demotions == []

    def test_gpu_eviction_of_a_shadow_demotes_nothing(self):
        tiered = build_tiered(gpu_capacity=1, cpu_capacity=2)
        tiered.insert((0, 1))
        tiered.promote_to_dram((0, 1))
        tiered.insert((0, 3))
        assert (0, 1) in tiered.cpu_tier
        assert tiered.demotions == []
        assert not tiered._shadows
        tiered.validate()

    def test_dram_would_admit(self):
        tiered = build_tiered(cpu_capacity=1)
        assert tiered.dram_would_admit((0, 1))
        tiered.promote_to_dram((0, 1))
        assert not tiered.dram_would_admit((0, 1))  # already resident
        assert tiered.dram_would_admit((0, 2))      # evict-and-admit
        zero = build_tiered(cpu_capacity=0)
        assert not zero.dram_would_admit((0, 1))

    @pytest.mark.parametrize("policy", available_policies())
    def test_full_dram_tier_admits_below_its_residents(self, policy):
        """Promotion has page-cache semantics: a full DRAM tier admits a
        key it does not hold even when its policy ranks the key below
        every resident (where ``insert_if_better`` would refuse)."""
        tiered = build_tiered(gpu_capacity=1, cpu_capacity=2, cpu_policy=policy)
        residents = [(0, 1), (0, 2)]
        for key in residents:
            tiered.promote_to_dram(key)
        for _ in range(3):
            for key in residents:
                assert tiered.access(key) is False   # GPU miss, DRAM hit
        assert not tiered.cpu_tier.would_admit((0, 3))
        assert tiered.dram_would_admit((0, 3))
        (evicted,) = tiered.promote_to_dram((0, 3))
        assert evicted in residents
        tiered.validate()

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
        manager = spec.build_sharded(2)
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


class TestDramWouldAdmit:
    @pytest.mark.parametrize("policy", available_policies())
    @given(
        history=st.lists(
            st.tuples(st.sampled_from(["insert", "promote", "access"]), _KEYS),
            max_size=40,
        ),
        gpu_capacity=st.integers(0, 4),
        cpu_capacity=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_non_residency_in_a_nonempty_dram_tier(
        self, policy, history, gpu_capacity, cpu_capacity
    ):
        """On any history, under every DRAM policy, a promotion makes
        sense exactly for the keys a DRAM tier with slots does not hold."""
        tiered = build_tiered(gpu_capacity, cpu_capacity, cpu_policy=policy)
        for op, key in history:
            if op == "insert":
                tiered.insert(key)
            elif op == "promote":
                tiered.promote_to_dram(key)
            else:
                tiered.access(key)
        for layer in range(3):
            for expert in range(10):
                key = (layer, expert)
                want = cpu_capacity > 0 and key not in tiered.cpu_tier
                assert tiered.dram_would_admit(key) is want


class TestSpilledExpertsSetForm:
    @given(
        history=st.lists(
            st.tuples(st.sampled_from(["insert", "evict", "promote", "access"]), _KEYS),
            max_size=50,
        ),
        num_devices=st.integers(1, 3),
        layer=st.integers(0, 2),
        # Arbitrary iterables: duplicates, ids resident nowhere (>= 10).
        experts=st.lists(st.integers(0, 12), max_size=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_key_is_spilled_filter(
        self, history, num_devices, layer, experts
    ):
        """``spilled_experts`` answers from the tiers' per-layer indexes;
        on any insert/evict/promote history it is the per-key
        ``is_spilled`` filter."""
        spec = CacheSpec(4, lambda: make_policy("lru"))
        manager = spec.build_sharded(num_devices)
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
        expected = frozenset(e for e in experts if tiered.is_spilled((layer, e)))
        assert tiered.spilled_experts(layer, experts) == expected
        assert tiered.spilled_experts(layer, (e for e in experts)) == expected
        tiered.validate()


class TestShadowSet:
    @given(
        history=st.lists(
            st.tuples(st.sampled_from(["insert", "evict", "promote"]), _KEYS),
            max_size=60,
        ),
        num_devices=st.integers(1, 3),
        gpu_capacity=st.integers(0, 5),
        cpu_capacity=st.integers(0, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_incremental_shadows_equal_dram_and_gpu_residents(
        self, history, num_devices, gpu_capacity, cpu_capacity
    ):
        """Kept incrementally through GPU inserts, GPU evictions (whose
        demotions land as DRAM promotions) and DRAM promotions, the shadow set is always the DRAM
        residents the GPU also holds."""
        spec = CacheSpec(gpu_capacity, lambda: make_policy("lru"))
        manager = spec.build_sharded(num_devices)
        cpu = ExpertCache(cpu_capacity, make_policy("lru"))
        tiered = TieredCacheManager(manager, cpu)
        for op, key in history:
            if op == "insert":
                tiered.insert(key)
            elif op == "promote":
                tiered.promote_to_dram(key)
            elif key in tiered:
                manager.shard_of(key).evict_explicit(key)
                assert key in cpu or tiered.demotions or cpu_capacity == 0
            for demoted, device in tiered.demotions:
                assert demoted not in cpu and demoted not in tiered
                assert manager.device_of(demoted) == device
            # Each queued demotion lands before the next operation.
            for demoted, _ in tiered.demotions:
                tiered.promote_to_dram(demoted)
            tiered.demotions.clear()
            assert set(tiered._shadows) == cpu.resident_keys & manager.resident_keys
            assert len(cpu) <= cpu_capacity
        tiered.validate()
