"""Sharded cache manager: routing, capacity accounting, aggregation."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import sharded
from repro.cache.lru import LRUPolicy
from repro.cache.manager import ExpertCache
from repro.cache.mrs import MRSPolicy
from repro.cache.sharded import CacheSpec, ShardedCacheManager, home_device, split_capacity
from repro.errors import CacheError


def make_manager(num_devices=4, capacity=8, **spec_kwargs):
    spec = CacheSpec(capacity, LRUPolicy, **spec_kwargs)
    return spec.build_sharded(num_devices)


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

    def test_needs_a_shard(self):
        with pytest.raises(CacheError):
            ShardedCacheManager([])
        with pytest.raises(CacheError):
            CacheSpec(4, LRUPolicy).build_sharded(0)

    def test_policy_instances_are_per_shard(self):
        manager = make_manager(num_devices=3)
        policies = {id(shard.policy) for shard in manager.shards}
        assert len(policies) == 3

    def test_single_shard_matches_bare_cache(self):
        warm = [(0, e) for e in range(9)]
        spec = CacheSpec(6, LRUPolicy, warm=warm)
        solo = ExpertCache(6, LRUPolicy())
        solo.warm_fill(warm)
        manager = spec.build_sharded(1)
        assert manager.shards[0].resident_keys == solo.resident_keys
        assert manager.capacity == solo.capacity


@pytest.fixture
def unasked(monkeypatch):
    """Fails the test the moment the manager evaluates the home rule."""

    def fail(expert, num_devices):
        raise AssertionError(f"home rule evaluated for expert {expert}")

    monkeypatch.setattr(sharded, "home_device", fail)


class TestSingleShard:
    def test_every_operation_routes_to_device_zero_unasked(self, unasked):
        """One shard: the home of every key is device 0, so no
        operation evaluates the home rule."""
        manager = ShardedCacheManager([ExpertCache(2, LRUPolicy())])
        shard = manager.shards[0]
        key = (0, 5)
        assert manager.device_of(key) == 0
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


    def test_warm_fill_hands_the_whole_ranking_to_the_shard(self, monkeypatch, unasked):
        """One call with every key, leaving residency, the logical clock
        and the policy's state as a per-key fill leaves them."""
        warm = [(layer, expert) for expert in range(5) for layer in range(3)]
        manager = ShardedCacheManager([ExpertCache(9, MRSPolicy())])
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
        manager = make_manager(num_devices=3, capacity=7)
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
        manager = spec.build_sharded(2)
        scores = np.array([0.9, 0.05, 0.03, 0.02])
        manager.observe_scores(0, scores)
        for shard in manager.shards:
            assert shard.policy.priority((0, 0)) > 0.0

    def test_validate_catches_misrouted_resident(self):
        manager = make_manager(num_devices=2, capacity=4)
        # Bypass routing: plant a key on the wrong shard.
        manager.shards[1].insert((0, 0))  # home: device 0
        with pytest.raises(CacheError):
            manager.validate()


class TestHomeRule:
    @given(
        history=st.lists(
            st.tuples(
                st.sampled_from(["access", "insert", "insert_if_better", "warm_fill"]),
                st.tuples(st.integers(0, 3), st.integers(0, 15)),
            ),
            max_size=60,
        ),
        num_devices=st.integers(1, 4),
        extra_slots=st.integers(0, 8),
        pinned=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 15)), max_size=4),
        planted_expert=st.integers(0, 15),
        offset=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_resident_sits_on_expert_mod_n(
        self, history, num_devices, extra_slots, pinned, planted_expert, offset
    ):
        """On any history, every resident key (pinned included) sits on
        shard ``expert % N``, and ``validate()`` flags a key planted on
        any other shard."""
        manager = make_manager(
            num_devices=num_devices, capacity=num_devices + extra_slots, pinned=pinned
        )
        for op, key in history:
            if op == "warm_fill":
                manager.warm_fill([key])
            else:
                getattr(manager, op)(key)
        for device, shard in enumerate(manager.shards):
            assert all(expert % num_devices == device for _, expert in shard.resident_keys)
            assert all(manager.device_of(key) == device for key in shard.resident_keys)
        assert all(
            home_device(expert, num_devices) == expert % num_devices for expert in range(16)
        )
        manager.validate()
        if num_devices == 1:
            return
        planted = (4, planted_expert)  # a layer the history never touched
        shift = 1 + (offset - 1) % (num_devices - 1)  # in 1 .. N-1
        wrong = (planted_expert + shift) % num_devices
        manager.shards[wrong].insert(planted)
        with pytest.raises(CacheError, match="resident on device"):
            manager.validate()

    @pytest.mark.parametrize(
        "expert, num_devices, home",
        [(0, 4, 0), (5, 4, 1), (11, 4, 3), (7, 1, 0), (6, 3, 0), (8, 3, 2)],
    )
    def test_home_of_an_expert(self, expert, num_devices, home):
        """The rule stripes experts by id; the manager answers with it
        for every layer."""
        assert home_device(expert, num_devices) == home
        manager = make_manager(num_devices=num_devices)
        for layer in range(6):
            assert manager.device_of((layer, expert)) == home
            assert manager.shard_of((layer, expert)) is manager.shards[home]

    @pytest.mark.parametrize("num_devices", [2, 3, 4])
    def test_layer_never_moves_a_home(self, num_devices):
        """All layers of one expert share its home, so one device's
        link carries every copy of that expert."""
        manager = make_manager(num_devices=num_devices)
        for expert in range(16):
            homes = {manager.device_of((layer, expert)) for layer in range(8)}
            assert homes == {expert % num_devices}

    @pytest.mark.parametrize("num_devices, num_experts", [(2, 8), (3, 8), (4, 64), (4, 6)])
    def test_every_device_homes_an_even_share(self, num_devices, num_experts):
        """A layer's experts spread over every device, shares differing
        by at most one expert."""
        counts = Counter(home_device(e, num_devices) for e in range(num_experts))
        assert set(counts) == set(range(num_devices))
        assert max(counts.values()) - min(counts.values()) <= 1

    @pytest.mark.parametrize("num_devices", [2, 3, 4])
    def test_a_full_home_shard_evicts_rather_than_spills(self, num_devices):
        """A home never depends on occupancy: with its home shard full
        and every other shard empty, an insert evicts on the home shard."""
        manager = make_manager(num_devices=num_devices, capacity=2 * num_devices)
        first, second, third = ((0, num_devices * i) for i in range(3))  # home: device 0
        manager.insert(first)
        manager.insert(second)
        assert manager.insert(third) == [first]
        assert manager.shards[0].resident_keys == {second, third}
        assert all(len(shard) == 0 for shard in manager.shards[1:])
        manager.validate()

    @pytest.mark.parametrize("num_devices", [2, 3])
    def test_would_admit_asks_only_the_home_shard(self, num_devices):
        """A locked, full home shard refuses a key other shards have
        room for, and the probe changes no residency."""
        manager = make_manager(num_devices=num_devices, capacity=2 * num_devices)
        home_keys = [(0, 0), (1, 0)]
        for key in home_keys:
            manager.insert(key)
        manager.lock(home_keys)
        assert manager.would_admit((2, 0)) is False
        assert manager.would_admit((2, 1)) is True
        assert manager.resident_keys == set(home_keys)
        assert manager.insert((2, 0)) == []  # rejected at home, not spilled
        assert manager.resident_keys == set(home_keys)
        assert manager.shards[0].stats.rejected_inserts == 1

    @pytest.mark.parametrize("num_devices", [1, 2, 3, 4])
    def test_device_experts_partition_the_layer(self, num_devices):
        """Per-device lookups split a layer's residents by home: disjoint,
        each expert on ``expert % N``, together the layer's residents."""
        rng = np.random.default_rng(num_devices)
        manager = make_manager(num_devices=num_devices, capacity=12)
        for _ in range(80):
            manager.insert((int(rng.integers(0, 3)), int(rng.integers(0, 16))))
        for layer in range(3):
            parts = [manager.device_experts_of_layer(layer, g) for g in range(num_devices)]
            assert sum(len(part) for part in parts) == len(frozenset().union(*parts))
            assert frozenset().union(*parts) == manager.cached_experts_of_layer(layer)
            for device, part in enumerate(parts):
                assert all(expert % num_devices == device for expert in part)

    @pytest.mark.parametrize("num_devices", [2, 3])
    def test_warm_fill_keeps_each_homes_spec_order(self, num_devices):
        """Each shard warms with the keys homed on it, in spec order,
        up to its capacity."""
        warm = [(layer, expert) for expert in range(12) for layer in range(2)]
        manager = make_manager(num_devices=num_devices, capacity=3 * num_devices, warm=warm)
        for device, shard in enumerate(manager.shards):
            homed = [key for key in warm if key[1] % num_devices == device]
            assert shard.resident_keys == set(homed[: shard.capacity])

    def test_identical_histories_give_identical_shards(self):
        """The rule is a pure function of the key: two managers fed one
        history hold the same keys on the same shards."""
        rng = np.random.default_rng(11)
        history = [(int(rng.integers(0, 4)), int(rng.integers(0, 16))) for _ in range(200)]
        managers = [make_manager(num_devices=3, capacity=9) for _ in range(2)]
        for manager in managers:
            for key in history:
                if not manager.access(key):
                    manager.insert_if_better(key)
        a, b = ([shard.resident_keys for shard in m.shards] for m in managers)
        assert a == b

    @pytest.mark.parametrize("num_devices", [2, 3])
    def test_accesses_count_on_the_home_shard(self, num_devices):
        """Every access, hit or miss, lands in its home shard's counters."""
        manager = make_manager(num_devices=num_devices, capacity=2 * num_devices)
        for expert in range(8):
            manager.access((0, expert))
        manager.insert((0, 0))
        manager.access((0, 0))
        for device, stats in enumerate(manager.per_device_stats()):
            homed = sum(1 for expert in range(8) if expert % num_devices == device)
            assert stats.misses == homed
            assert stats.hits == (1 if device == 0 else 0)


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
