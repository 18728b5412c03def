"""Sharded cache manager: routing, capacity accounting, aggregation."""

import numpy as np
import pytest

from repro.cache.lru import LRUPolicy
from repro.cache.manager import ExpertCache
from repro.cache.mrs import MRSPolicy
from repro.cache.placement import PlacementPolicy, make_placement
from repro.cache.sharded import CacheSpec, ShardedCacheManager, split_capacity
from repro.errors import CacheError


def make_manager(num_devices=4, capacity=8, placement="round_robin", **spec_kwargs):
    spec = CacheSpec(capacity, LRUPolicy, **spec_kwargs)
    return spec.build_sharded(make_placement(placement, num_devices))


class TestSplitCapacity:
    def test_even_split(self):
        assert split_capacity(8, 4) == [2, 2, 2, 2]

    def test_remainder_goes_to_first_devices(self):
        assert split_capacity(10, 4) == [3, 3, 2, 2]

    def test_sums_to_total(self):
        for total in range(0, 20):
            for n in range(1, 9):
                assert sum(split_capacity(total, n)) == total

    def test_validation(self):
        with pytest.raises(CacheError):
            split_capacity(-1, 2)
        with pytest.raises(CacheError):
            split_capacity(4, 0)


class TestConstruction:
    def test_from_spec_splits_capacity(self):
        manager = make_manager(num_devices=4, capacity=10)
        assert [s.capacity for s in manager.shards] == [3, 3, 2, 2]
        assert manager.capacity == 10

    def test_pinned_routed_to_home_shards(self):
        pinned = [(0, e) for e in range(8)]
        manager = make_manager(num_devices=4, capacity=0, pinned=pinned)
        for device, shard in enumerate(manager.shards):
            assert shard.pinned_keys == {(0, e) for e in range(8) if e % 4 == device}
        assert manager.resident_keys == set(pinned)

    def test_warm_fill_respects_per_shard_capacity(self):
        warm = [(0, e) for e in range(16)]
        manager = make_manager(num_devices=2, capacity=4, warm=warm)
        for shard in manager.shards:
            assert len(shard.dynamic_keys) == shard.capacity == 2
        manager.validate()

    def test_shard_count_must_match_placement(self):
        shards = [ExpertCache(2, LRUPolicy()) for _ in range(3)]
        with pytest.raises(CacheError):
            ShardedCacheManager(shards, make_placement("round_robin", 2))

    def test_policy_instances_are_per_shard(self):
        manager = make_manager(num_devices=3)
        policies = {id(shard.policy) for shard in manager.shards}
        assert len(policies) == 3

    def test_single_shard_matches_bare_cache(self):
        warm = [(0, e) for e in range(9)]
        spec = CacheSpec(6, LRUPolicy, warm=warm)
        solo = ExpertCache(6, LRUPolicy())
        solo.warm_fill(warm)
        manager = spec.build_sharded(make_placement("round_robin", 1))
        assert manager.shards[0].resident_keys == solo.resident_keys
        assert manager.capacity == solo.capacity


class _UnaskedPlacement(PlacementPolicy):
    """Fails the test the moment the manager consults it."""

    name = "unasked"

    def assign(self, key, occupancy):
        raise AssertionError(f"placement asked to assign {key}")

    def peek(self, key):
        raise AssertionError(f"placement asked to peek {key}")

    def preview(self, key, occupancy):
        raise AssertionError(f"placement asked to preview {key}")


class TestSingleShard:
    def test_every_operation_routes_to_device_zero_unasked(self):
        """One shard: the home of every key is device 0, so no
        operation consults the placement policy."""
        manager = ShardedCacheManager([ExpertCache(2, LRUPolicy())], _UnaskedPlacement(1))
        shard = manager.shards[0]
        key = (0, 5)
        assert manager.device_of(key) == 0 and manager.peek_device_of(key) == 0
        assert manager.shard_of(key) is shard
        assert manager.would_admit(key) and key not in manager
        assert manager.access(key) is False
        assert manager.insert(key) == [] and key in manager
        assert manager.access(key) is True
        manager.lock([key])
        assert shard.locked_keys == {key}
        manager.unlock_all()
        manager.warm_fill([(1, 1)])
        assert manager.insert_if_better((1, 2)) == []  # LRU: a newcomer never outranks
        assert manager.insert((1, 2)) == [key]  # the LRU victim
        assert manager.cached_experts_of_layer(1) == {1, 2}
        assert manager.stats is shard.stats
        manager.validate()


    def test_warm_fill_hands_the_whole_ranking_to_the_shard(self, monkeypatch):
        """One call with every key, leaving residency, the logical clock
        and the policy's state as a per-key fill leaves them."""
        warm = [(layer, expert) for expert in range(5) for layer in range(3)]
        manager = ShardedCacheManager([ExpertCache(9, MRSPolicy())], _UnaskedPlacement(1))
        per_key = ExpertCache(9, MRSPolicy())
        for key in warm:
            per_key.warm_fill([key])
        shard, calls = manager.shards[0], []
        real = shard.warm_fill
        monkeypatch.setattr(shard, "warm_fill", lambda keys: calls.append(keys) or real(keys))
        manager.warm_fill(warm)
        assert calls == [warm]
        assert shard.resident_keys == per_key.resident_keys
        assert shard._clock == per_key._clock == 9
        assert list(shard.policy.residents) == list(per_key.policy.residents)
        for name in ("_scores", "_resident", "_stamp"):
            assert np.array_equal(getattr(shard.policy, name), getattr(per_key.policy, name))


class TestRoutingAndMutation:
    def test_operations_route_to_home_shard(self):
        manager = make_manager(num_devices=2, capacity=4)
        manager.insert((0, 0))  # home: device 0
        manager.insert((0, 1))  # home: device 1
        assert (0, 0) in manager.shards[0]
        assert (0, 1) in manager.shards[1]
        assert (0, 0) in manager and (0, 1) in manager
        assert manager.cached_experts_of_layer(0) == {0, 1}
        assert manager.device_experts_of_layer(0, 0) == {0}

    def test_access_counts_on_home_shard(self):
        manager = make_manager(num_devices=2, capacity=4)
        manager.insert((0, 0))
        assert manager.access((0, 0)) is True
        assert manager.access((0, 1)) is False
        assert manager.shards[0].stats.hits == 1
        assert manager.shards[1].stats.misses == 1
        stats = manager.stats
        assert (stats.hits, stats.misses) == (1, 1)

    def test_lock_protects_across_shards(self):
        manager = make_manager(num_devices=2, capacity=2)
        manager.insert((0, 0))
        manager.insert((0, 2))  # both home device 0, filling its 1-slot shard?
        manager.lock([(0, 0)])
        assert (0, 0) in manager.shards[0].locked_keys
        manager.unlock_all()
        assert manager.shards[0].locked_keys == set()

    def test_per_device_capacity_never_exceeded(self):
        """Randomised workload: every shard stays within its budget."""
        rng = np.random.default_rng(7)
        manager = make_manager(num_devices=3, capacity=7, placement="load_aware")
        for _ in range(500):
            key = (int(rng.integers(0, 6)), int(rng.integers(0, 16)))
            op = rng.integers(0, 3)
            if op == 0:
                manager.access(key)
            elif op == 1:
                manager.insert(key)
            else:
                manager.insert_if_better(key)
            for shard in manager.shards:
                assert len(shard.dynamic_keys) <= shard.capacity
            manager.validate()

    def test_observe_scores_broadcasts(self):
        spec = CacheSpec(4, lambda: MRSPolicy(alpha=0.5, top_p=2))
        manager = spec.build_sharded(make_placement("round_robin", 2))
        scores = np.array([0.9, 0.05, 0.03, 0.02])
        manager.observe_scores(0, scores)
        for shard in manager.shards:
            assert shard.policy.priority((0, 0)) > 0.0

    def test_would_admit_does_not_commit_load_aware_placement(self):
        """Rejected admission probes must not sticky-assign homes."""
        manager = make_manager(num_devices=2, capacity=4, placement="load_aware")
        assert manager.would_admit((0, 0)) is True
        assert manager.placement.assignments == {}
        assert (0, 0) not in manager  # membership probe: also non-committing
        assert manager.placement.assignments == {}
        manager.insert((0, 0))
        assert manager.placement.assignments == {(0, 0): 0}

    def test_validate_catches_misrouted_resident(self):
        manager = make_manager(num_devices=2, capacity=4)
        # Bypass routing: plant a key on the wrong shard.
        manager.shards[1].insert((0, 0))  # round_robin home is device 0
        with pytest.raises(CacheError):
            manager.validate()


class TestStatsAggregation:
    def test_aggregate_sums_per_layer_counters(self):
        manager = make_manager(num_devices=2, capacity=4)
        manager.insert((0, 0))
        manager.insert((1, 1))
        manager.access((0, 0))
        manager.access((1, 1))
        manager.access((0, 2))
        stats = manager.stats
        assert stats.hits == 2 and stats.misses == 1
        assert stats.insertions == 2
        assert stats.per_layer_hits == {0: 1, 1: 1}
        assert stats.per_layer_misses == {0: 1}
        assert manager.per_device_hit_rates() == [
            shard.stats.hit_rate for shard in manager.shards
        ]
