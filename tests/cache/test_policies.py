"""Eviction-policy semantics: LRU, LFU and MRS."""

import numpy as np
import pytest

from repro.cache.base import make_policy
from repro.cache.lfu import LFUPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.mrs import MRSPolicy
from repro.errors import CacheError
from tests.cache.reference_policies import ReferenceMRS


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        policy.on_insert((0, 0), 1)
        policy.on_insert((0, 1), 2)
        policy.on_access((0, 0), 3)
        assert policy.victim(()) == (0, 1)

    def test_forget_then_reinsert(self):
        policy = LRUPolicy()
        policy.on_insert((0, 0), 1)
        policy.forget((0, 0))
        policy.on_insert((0, 0), 5)
        assert policy.priority((0, 0)) == 5.0

    def test_victim_is_first_unlocked_key_in_use_order(self):
        """Order of use, not the timestamp, ranks: the cache never
        repeats one, a bare policy handed equal ones still decides."""
        policy = LRUPolicy()
        policy.on_insert((0, 1), 1)
        policy.on_insert((0, 0), 1)
        policy.on_insert((0, 2), 1)
        assert policy.victim(()) == (0, 1)
        assert policy.victim({(0, 1)}) == (0, 0)
        policy.on_access((0, 0), 1)
        assert policy.victim({(0, 1)}) == (0, 2)


class TestLFU:
    def test_evicts_least_frequent(self):
        policy = LFUPolicy()
        for key in [(0, 0), (0, 1)]:
            policy.on_insert(key, 1)
        policy.on_access((0, 0), 2)
        policy.on_access((0, 0), 3)
        policy.on_access((0, 1), 4)
        assert policy.victim(()) == (0, 1)
        assert policy.victim({(0, 1)}) == (0, 0)

    def test_counts_survive_eviction(self):
        policy = LFUPolicy()
        policy.on_insert((0, 0), 1)
        policy.on_access((0, 0), 2)
        policy.forget((0, 0))
        assert policy.priority((0, 0)) == 1.0
        assert (0, 0) not in policy.residents

    def test_recency_breaks_count_ties(self):
        policy = LFUPolicy()
        policy.on_insert((0, 0), 1)
        policy.on_insert((0, 1), 2)
        assert policy.victim(()) == (0, 0)


@pytest.mark.parametrize("name", ["lru", "lfu", "mrs"])
class TestContract:
    """What every policy inherits from ``EvictionPolicy``."""

    def test_no_unlocked_resident_raises(self, name):
        policy = make_policy(name)
        with pytest.raises(CacheError, match="no unlocked resident"):
            policy.victim(())
        policy.on_insert((0, 0), 1)
        with pytest.raises(CacheError, match="no unlocked resident"):
            policy.victim({(0, 0), (4, 4)})

    def test_access_to_unknown_key_raises(self, name):
        policy = make_policy(name)
        policy.on_insert((0, 0), 1)
        policy.forget((0, 0))
        with pytest.raises(CacheError, match="unknown key"):
            policy.on_access((0, 0), 2)

    def test_residents_follow_insert_and_forget(self, name):
        policy = make_policy(name)
        policy.on_insert((1, 2), 1)
        policy.on_insert((0, 5), 2)
        policy.forget((1, 2))
        policy.forget((3, 3))  # never inserted: ignored
        assert set(policy.residents) == {(0, 5)}
        assert policy.victim(()) == (0, 5)


class TestMRS:
    def test_eq3_update(self):
        """S <- alpha * TopP(s) + (1 - alpha) * S, exactly."""
        policy = MRSPolicy(alpha=0.5, top_p=2)
        scores = np.array([0.5, 0.3, 0.15, 0.05])
        policy.on_scores(0, scores, 1)
        assert policy.priority((0, 0)) == pytest.approx(0.25)
        assert policy.priority((0, 1)) == pytest.approx(0.15)
        # Outside top-p: pure decay from zero stays zero.
        assert policy.priority((0, 2)) == 0.0
        policy.on_scores(0, scores, 2)
        assert policy.priority((0, 0)) == pytest.approx(0.5 * 0.5 + 0.5 * 0.25)

    def test_non_top_p_decays(self):
        policy = MRSPolicy(alpha=0.5, top_p=1)
        policy.on_scores(0, np.array([0.9, 0.1]), 1)
        policy.on_scores(0, np.array([0.1, 0.9]), 2)
        # Expert 0 was top once then decayed.
        assert policy.priority((0, 0)) == pytest.approx(0.5 * 0.45)

    def test_victim_is_min_score(self):
        policy = MRSPolicy(alpha=1.0, top_p=4)
        policy.on_scores(0, np.array([0.4, 0.3, 0.2, 0.1]), 1)
        for expert in range(4):
            policy.on_insert((0, expert), 2)
        assert policy.victim(()) == (0, 3)
        assert policy.victim({(0, 3), (1, 1)}) == (0, 2)

    def test_equal_scores_fall_back_to_recency_then_key(self):
        policy = MRSPolicy()
        policy.on_insert((1, 0), 1)
        policy.on_insert((0, 3), 2)
        policy.on_insert((0, 1), 2)
        assert policy.victim(()) == (1, 0)
        assert policy.victim({(1, 0)}) == (0, 1)

    def test_scores_persist_across_eviction(self):
        policy = MRSPolicy(alpha=1.0, top_p=2)
        policy.on_scores(0, np.array([0.7, 0.3]), 1)
        policy.on_insert((0, 0), 2)
        policy.forget((0, 0))
        assert policy.priority((0, 0)) == pytest.approx(0.7)

    def test_top_p_clamped_to_pool(self):
        policy = MRSPolicy(alpha=1.0, top_p=10)
        policy.on_scores(0, np.array([0.6, 0.4]), 1)
        assert policy.priority((0, 1)) == pytest.approx(0.4)

    def test_invalid_params(self):
        with pytest.raises(CacheError):
            MRSPolicy(alpha=0.0)
        with pytest.raises(CacheError):
            MRSPolicy(alpha=1.5)
        with pytest.raises(CacheError):
            MRSPolicy(top_p=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.1])
    def test_alpha_outside_eq3_range_rejected(self, alpha):
        """Eq. (3) needs alpha in (0, 1]: 0 would never learn a score."""
        with pytest.raises(CacheError, match=r"alpha must be in \(0, 1\]"):
            MRSPolicy(alpha=alpha)

    def test_alpha_one_accepted(self):
        assert MRSPolicy(alpha=1.0).alpha == 1.0

    def test_scores_must_be_1d(self):
        with pytest.raises(CacheError):
            MRSPolicy().on_scores(0, np.ones((2, 2)), 1)

    def test_layers_tracked_independently(self):
        policy = MRSPolicy(alpha=1.0, top_p=1)
        policy.on_scores(0, np.array([0.9, 0.1]), 1)
        policy.on_scores(1, np.array([0.2, 0.8]), 2)
        assert policy.priority((0, 0)) == pytest.approx(0.9)
        assert policy.priority((1, 1)) == pytest.approx(0.8)

    def test_insert_before_scores_reads_zero_until_scored(self):
        """A key beyond anything scored so far has priority zero and
        keeps its residency when the score matrix grows under it."""
        policy = MRSPolicy(alpha=1.0, top_p=2)
        policy.on_insert((3, 5), 1)
        assert policy.priority((3, 5)) == 0.0
        assert policy.priority((9, 9)) == 0.0
        policy.on_scores(4, np.full(8, 0.125), 2)
        assert policy.victim(()) == (3, 5)
        policy.on_scores(3, np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.7]), 3)
        assert policy.priority((3, 5)) == pytest.approx(0.7)


class TestMRSVectorizedEquivalence:
    """The numpy MRS must match the per-key reference bit-for-bit:
    same priorities, same eviction order."""

    @pytest.mark.parametrize("alpha,top_p", [(0.3, 2), (0.7, 4), (1.0, 1)])
    def test_identical_eviction_order(self, alpha, top_p):
        import random

        rng = random.Random(42)
        nprng = np.random.default_rng(42)
        policy = MRSPolicy(alpha=alpha, top_p=top_p)
        reference = ReferenceMRS(alpha, top_p)
        resident: set[tuple[int, int]] = set()
        evictions_new: list[tuple[int, int]] = []
        evictions_ref: list[tuple[int, int]] = []
        for clock in range(1, 300):
            roll = rng.random()
            if roll < 0.3:
                key = (rng.randint(0, 2), rng.randint(0, 9))
                policy.on_insert(key, clock)
                reference.on_insert(key, clock)
                resident.add(key)
            elif roll < 0.45 and resident:
                key = rng.choice(sorted(resident))
                policy.on_access(key, clock)
                reference.on_access(key, clock)
            elif roll < 0.8:
                layer = rng.randint(0, 2)
                scores = nprng.random(rng.choice([6, 8, 10]))
                policy.on_scores(layer, scores, clock)
                reference.on_scores(layer, scores, clock)
            elif len(resident) > 2:
                locked = set(rng.sample(sorted(resident), 2))
                victim_new = policy.victim(locked)
                victim_ref = reference.victim(locked)
                evictions_new.append(victim_new)
                evictions_ref.append(victim_ref)
                assert policy.priority(victim_new) == reference.priority(victim_ref)
                policy.forget(victim_new)
                reference.forget(victim_ref)
                resident.discard(victim_new)
        assert evictions_new == evictions_ref
        assert len(evictions_new) > 10
        for key in sorted(resident):
            assert policy.priority(key) == reference.priority(key)


class TestMRSStepPriming:
    """``on_step_scores`` is the per-layer ``on_scores`` replay of a
    step, done as one block: the scores must be bit-identical."""

    @staticmethod
    def replay(blocks, top_p):
        replayed, primed = MRSPolicy(top_p=top_p), MRSPolicy(top_p=top_p)
        clock = 0
        for block in blocks:
            for layer, scores in enumerate(block):
                clock += 1
                replayed.on_scores(layer, scores, clock)
            primed.on_step_scores(block)
        return replayed, primed, clock

    def test_an_engine_primes_as_the_72_call_replay(self):
        from repro.engine.factory import make_engine

        engine = make_engine(model="deepseek", num_layers=8, seed=3, cache_ratio=0.5)
        blocks = [
            [routing.mean_scores for routing in step.layers]
            for step in engine.runtime.warmup_trace.steps
        ]
        replayed, _, calls = self.replay(blocks, top_p=12)
        assert calls == 72
        assert np.array_equal(engine.runtime.cache.shards[0].policy._scores, replayed._scores)

    @pytest.mark.parametrize("top_p", [1, 3, 10, 12])
    def test_ties_and_narrow_pools_match(self, top_p):
        rng = np.random.default_rng(7)
        blocks = [np.round(rng.random((4, 10)), 1) for _ in range(6)]  # many ties
        replayed, primed, _ = self.replay(blocks, top_p)
        assert np.array_equal(primed._scores, replayed._scores)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("lru", LRUPolicy), ("lfu", LFUPolicy), ("mrs", MRSPolicy)])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_kwargs_forwarded(self):
        policy = make_policy("mrs", alpha=0.9, top_p=7)
        assert policy.alpha == 0.9 and policy.top_p == 7

    def test_unknown_policy(self):
        with pytest.raises(CacheError):
            make_policy("belady")
