"""Property-based tests of cache invariants under random workloads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import make_policy
from repro.cache.manager import ExpertCache
from tests.cache.reference_policies import OPS, apply, reference_cache

_KEYS = st.tuples(st.integers(0, 3), st.integers(0, 7))


@st.composite
def cache_operations(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("access"), _KEYS),
                st.tuples(st.just("insert"), _KEYS),
                st.tuples(st.just("insert_if_better"), _KEYS),
                st.tuples(st.just("observe"), st.integers(0, 3)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return ops


class TestCacheInvariants:
    @given(
        ops=cache_operations(),
        capacity=st.integers(0, 10),
        policy_name=st.sampled_from(["lru", "lfu", "mrs"]),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=80, deadline=None)
    def test_capacity_and_consistency_hold(self, ops, capacity, policy_name, seed):
        """No operation sequence may break capacity or stats invariants."""
        cache = ExpertCache(capacity, make_policy(policy_name))
        rng = np.random.default_rng(seed)
        for op, arg in ops:
            if op == "access":
                cache.access(arg)
            elif op == "insert":
                cache.insert(arg)
            elif op == "insert_if_better":
                cache.insert_if_better(arg)
            else:
                cache.observe_scores(arg, rng.dirichlet(np.ones(8)))
            cache.validate()
            assert len(cache.dynamic_keys) <= capacity
        assert cache.stats.hits + cache.stats.misses == sum(
            1 for op, _ in ops if op == "access"
        )

    @given(
        history=st.lists(
            st.tuples(
                st.sampled_from(OPS),
                _KEYS,
                st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=8, max_size=8),
            ),
            max_size=80,
        ),
        capacity=st.integers(0, 6),
        policy_name=st.sampled_from(["lru", "lfu", "mrs"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_answer_and_victim_match_the_plain_reference(
        self, history, capacity, policy_name
    ):
        """Any history of cache operations (scores drawn from four
        values, so exact ties are the rule): each answer and the next
        victim equal those of ``tests/cache/reference_policies.py``."""
        cache = ExpertCache(capacity, make_policy(policy_name))
        reference = reference_cache(capacity, policy_name)
        for op, key, scores in history:
            scores = np.array(scores)
            assert apply(cache, op, key, scores) == apply(reference, op, key, scores)
            assert cache._victim() == reference._victim()
            cache.validate()
        assert cache.stats == reference.stats
        assert cache.dynamic_keys == reference.dynamic_keys

    @given(
        ops=cache_operations(),
        pinned=st.sets(_KEYS, min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pinned_keys_survive_everything(self, ops, pinned):
        cache = ExpertCache(2, make_policy("lru"), pinned=pinned)
        rng = np.random.default_rng(0)
        for op, arg in ops:
            if op == "access":
                cache.access(arg)
            elif op in ("insert", "insert_if_better"):
                getattr(cache, op)(arg)
            else:
                cache.observe_scores(arg, rng.dirichlet(np.ones(8)))
        for key in pinned:
            assert key in cache

    @given(
        scores_seq=st.lists(
            st.lists(st.floats(0.001, 1.0), min_size=8, max_size=8),
            min_size=1,
            max_size=20,
        ),
        alpha=st.floats(0.05, 1.0),
        top_p=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_mrs_scores_bounded_by_max_observed(self, scores_seq, alpha, top_p):
        """S is a convex combination of observed scores: bounded above."""
        policy = make_policy("mrs", alpha=alpha, top_p=top_p)
        max_seen = 0.0
        for step, raw in enumerate(scores_seq):
            scores = np.array(raw)
            scores /= scores.sum()
            policy.on_scores(0, scores, step)
            max_seen = max(max_seen, float(scores.max()))
        for expert in range(8):
            assert 0.0 <= policy.priority((0, expert)) <= max_seen + 1e-9
