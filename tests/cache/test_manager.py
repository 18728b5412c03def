"""ExpertCache capacity, pinning, locking and admission control."""

import hashlib

import numpy as np
import pytest

from repro.cache.base import make_policy
from repro.cache.lru import LRUPolicy
from repro.cache.manager import ExpertCache
from repro.cache.mrs import MRSPolicy
from repro.errors import CacheError
from tests.cache.reference_policies import apply, reference_cache, seeded_history


def _cache(capacity=2, pinned=()):
    return ExpertCache(capacity, LRUPolicy(), pinned=pinned)


class TestBasics:
    def test_insert_and_contains(self):
        cache = _cache()
        cache.insert((0, 0))
        assert (0, 0) in cache
        assert len(cache) == 1

    def test_insert_duplicate_noop(self):
        cache = _cache()
        cache.insert((0, 0))
        assert cache.insert((0, 0)) == []
        assert cache.stats.insertions == 1

    def test_eviction_at_capacity(self):
        cache = _cache(capacity=2)
        cache.insert((0, 0))
        cache.insert((0, 1))
        evicted = cache.insert((0, 2))
        assert evicted == [(0, 0)]
        assert len(cache) == 2

    def test_zero_capacity_rejects(self):
        cache = _cache(capacity=0)
        assert cache.insert((0, 0)) == []
        assert cache.stats.rejected_inserts == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            _cache(capacity=-1)

    def test_access_hit_miss_accounting(self):
        cache = _cache()
        cache.insert((0, 0))
        assert cache.access((0, 0)) is True
        assert cache.access((0, 1)) is False
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_miss_does_not_auto_insert(self):
        cache = _cache()
        cache.access((0, 5))
        assert (0, 5) not in cache

    def test_cached_experts_of_layer(self):
        cache = _cache(capacity=4)
        cache.insert((0, 1))
        cache.insert((1, 2))
        cache.insert((0, 3))
        assert cache.cached_experts_of_layer(0) == {1, 3}


class TestPinning:
    def test_pinned_always_resident(self):
        cache = _cache(capacity=1, pinned=[(0, 9)])
        assert (0, 9) in cache
        cache.insert((0, 0))
        cache.insert((0, 1))  # evicts (0,0), never (0,9)
        assert (0, 9) in cache

    def test_pinned_outside_capacity_budget(self):
        cache = _cache(capacity=1, pinned=[(0, 9)])
        cache.insert((0, 0))
        assert len(cache) == 2
        cache.validate()

    def test_insert_pinned_is_noop(self):
        cache = _cache(capacity=1, pinned=[(0, 9)])
        assert cache.insert((0, 9)) == []


class TestLocking:
    def test_locked_keys_not_evicted(self):
        cache = _cache(capacity=2)
        cache.insert((0, 0))
        cache.insert((0, 1))
        cache.lock([(0, 0)])
        evicted = cache.insert((0, 2))
        assert (0, 0) not in evicted
        cache.unlock_all()

    def test_all_locked_rejects_insert(self):
        cache = _cache(capacity=1)
        cache.insert((0, 0))
        cache.lock([(0, 0)])
        assert cache.insert((0, 1)) == []
        assert cache.stats.rejected_inserts == 1


class TestWarmFill:
    def test_fills_to_capacity_in_order(self):
        cache = _cache(capacity=2)
        cache.warm_fill([(0, 0), (0, 1), (0, 2)])
        assert (0, 0) in cache and (0, 1) in cache and (0, 2) not in cache

    def test_skips_already_resident(self):
        cache = _cache(capacity=2)
        cache.insert((0, 1))
        cache.warm_fill([(0, 1), (0, 2)])
        assert len(cache) == 2


class TestAdmissionControl:
    def _mrs_cache(self):
        policy = MRSPolicy(alpha=1.0, top_p=4)
        policy.on_scores(0, np.array([0.5, 0.3, 0.15, 0.05]), 1)
        cache = ExpertCache(2, policy)
        cache.insert((0, 0))
        cache.insert((0, 1))
        return cache

    def test_lower_priority_rejected(self):
        cache = self._mrs_cache()
        assert not cache.would_admit((0, 3))
        assert cache.insert_if_better((0, 3)) == []
        assert (0, 3) not in cache

    def test_higher_priority_admitted(self):
        policy = MRSPolicy(alpha=1.0, top_p=4)
        policy.on_scores(0, np.array([0.05, 0.15, 0.3, 0.5]), 1)
        cache = ExpertCache(2, policy)
        cache.insert((0, 0))
        cache.insert((0, 1))
        assert cache.would_admit((0, 3))
        evicted = cache.insert_if_better((0, 3))
        assert evicted == [(0, 0)]
        assert (0, 3) in cache

    def test_free_slots_always_admit(self):
        policy = MRSPolicy(alpha=1.0, top_p=4)
        cache = ExpertCache(2, policy)
        assert cache.would_admit((0, 3))

    def test_margin_blocks_marginal_wins(self):
        policy = MRSPolicy(alpha=1.0, top_p=4)
        policy.on_scores(0, np.array([0.30, 0.28, 0.22, 0.20]), 1)
        cache = ExpertCache(1, policy)
        cache.insert((0, 1))  # S = 0.28
        assert cache.would_admit((0, 0), margin=0.0)  # 0.30 > 0.28
        assert not cache.would_admit((0, 0), margin=0.25)

    def test_resident_key_never_admitted(self):
        cache = self._mrs_cache()
        assert not cache.would_admit((0, 0))


class TestValidation:
    def test_validate_detects_overflow(self):
        cache = _cache(capacity=1)
        cache._resident.add((0, 0))
        cache._resident.add((0, 1))
        with pytest.raises(CacheError):
            cache.validate()

    def test_evict_explicit(self):
        cache = _cache()
        cache.insert((0, 0))
        cache.evict_explicit((0, 0))
        assert (0, 0) not in cache
        with pytest.raises(CacheError):
            cache.evict_explicit((0, 0))

    def test_observe_scores_reaches_policy(self):
        policy = MRSPolicy(alpha=1.0, top_p=2)
        cache = ExpertCache(2, policy)
        cache.observe_scores(0, np.array([0.8, 0.2]))
        assert policy.priority((0, 0)) == pytest.approx(0.8)

    def test_validate_detects_stale_victim_memo(self):
        """A live memo must be what the policy would choose now."""
        cache = _cache(capacity=2)
        cache.insert((0, 0))
        cache.insert((0, 1))
        cache.would_admit((0, 2))  # consults the policy: the memo is live
        assert cache._victim_memo == (cache._version, (0, 0))
        cache.validate()
        cache._victim_memo = (cache._version, (0, 1))
        with pytest.raises(CacheError, match="victim memo"):
            cache.validate()
        # A memo from an older version is dead weight, not an error.
        cache._victim_memo = (cache._version - 1, (0, 1))
        cache.validate()

    def test_validate_detects_layer_index_drift(self):
        cache = _cache(capacity=2)
        cache.insert((0, 0))
        cache._by_layer[0].add(5)
        with pytest.raises(CacheError, match="per-layer index"):
            cache.validate()


    def test_validate_detects_policy_view_drift(self):
        """The policy ranks the residents it was told about: both
        directions of disagreement with the cache are corruption."""
        cache = _cache(capacity=2)
        cache.insert((0, 0))
        cache.validate()
        cache.policy.on_insert((0, 1), 99)  # in the policy, not resident
        with pytest.raises(CacheError, match="policy's residents"):
            cache.validate()
        cache.policy.forget((0, 1))
        cache.validate()
        cache.policy.forget((0, 0))  # resident, unknown to the policy
        with pytest.raises(CacheError, match="policy's residents"):
            cache.validate()


#: sha256 per policy over the seeded 2 000-operation history (capacity
#: 6, keys over 3 layers x 8 experts): the evicted-key sequence, every
#: ``would_admit`` answer, ``rejected_inserts``, the final residents and
#: the ``CacheStats`` counters. Recorded at the commit before the
#: policies were rewritten to rank their own residents.
GOLDEN_EVICTIONS = {
    "lru": "042f509ad40b1ee294a222ba83b850d1a228f3fc1baccfcf4edd141652d7e44c",
    "lfu": "729dd373ea895b495384f3719f9fab693e20b575a86bfc3e702f0cdf830a34b9",
    "mrs": "26817d56ed40c6aa62eb167af89105002ba566302e41fcce0246768a85f43729",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EVICTIONS))
def test_eviction_history_matches_golden_and_reference(name):
    """One seeded history, two checks: the digest recorded before the
    refactor, and — after every operation — the same answer and the
    same next victim as the plain-form reference policy."""
    cache = ExpertCache(6, make_policy(name))
    reference = reference_cache(6, name)
    evicted, admits = [], []
    for op, key, scores in seeded_history(seed=23):
        answer = apply(cache, op, key, scores)
        assert answer == apply(reference, op, key, scores), (op, key)
        assert cache._victim() == reference._victim(), (op, key)
        cache.validate()
        if op in ("insert", "insert_if_better"):
            evicted += answer
        elif op == "would_admit":
            admits.append(answer)
    stats = cache.stats
    assert stats == reference.stats
    record = (
        evicted,
        admits,
        stats.rejected_inserts,
        sorted(cache.dynamic_keys),
        (stats.hits, stats.misses, stats.insertions, stats.evictions),
        sorted(stats.per_layer_hits.items()),
        sorted(stats.per_layer_misses.items()),
    )
    assert len(evicted) > 200 and stats.rejected_inserts > 50
    assert hashlib.sha256(repr(record).encode()).hexdigest() == GOLDEN_EVICTIONS[name]
