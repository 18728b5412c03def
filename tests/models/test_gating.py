"""Unit and property tests for softmax top-K routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigError
from repro.models.gating import route_tokens, softmax, top_k_indices


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(5, 7))
        out = softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-6)

    def test_handles_large_logits_without_overflow(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] > 0.999

    def test_invariant_to_constant_shift(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(softmax(x), softmax(x + 5.0), rtol=1e-6)


class TestTopK:
    def test_selects_largest(self):
        scores = np.array([[0.1, 0.5, 0.2, 0.2]])
        idx = top_k_indices(scores, 2)
        assert idx[0, 0] == 1

    def test_tie_break_prefers_lower_index(self):
        scores = np.array([[0.3, 0.3, 0.4]])
        idx = top_k_indices(scores, 2)
        assert list(idx[0]) == [2, 0]

    def test_k_equals_n(self):
        scores = np.array([[0.2, 0.3, 0.5]])
        idx = top_k_indices(scores, 3)
        assert sorted(idx[0]) == [0, 1, 2]

    @pytest.mark.parametrize("k", [0, 5, -1])
    def test_invalid_k_rejected(self, k):
        with pytest.raises(ConfigError):
            top_k_indices(np.ones((2, 4)), k)

    def test_requires_2d(self):
        with pytest.raises(ConfigError):
            top_k_indices(np.ones(4), 1)

    @given(
        levels=arrays(
            np.int8,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.integers(0, 3),
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_selection_equals_stable_sort_under_heavy_ties(
        self, levels, data
    ):
        """Both row-count cases (the sort below 16 rows, selection from
        there) are the stable argsort, on scores quantised to four
        levels so that nearly every comparison is a tie."""
        scores = levels.astype(np.float32) / np.float32(3)
        k = data.draw(st.integers(1, scores.shape[1]))
        np.testing.assert_array_equal(
            top_k_indices(scores, k),
            np.argsort(-scores, axis=1, kind="stable")[:, :k],
        )

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_non_finite_scores_take_the_sort(self, bad):
        """NaN sorts last but wins ``argmax``, and a selected ``-inf``
        looks like a masked winner: selection would differ, so a batch
        holding either is sorted."""
        rng = np.random.default_rng(8)
        scores = rng.integers(0, 4, size=(32, 6)).astype(np.float32)
        scores[::3, 1] = bad
        scores[5, :] = bad
        scores[7, 2:] = bad
        for k in (1, 3, 6):
            np.testing.assert_array_equal(
                top_k_indices(scores, k),
                np.argsort(-scores, axis=1, kind="stable")[:, :k],
            )

    def test_integer_scores_take_the_sort(self):
        scores = np.random.default_rng(10).integers(0, 4, size=(32, 6))
        np.testing.assert_array_equal(
            top_k_indices(scores, 3),
            np.argsort(-scores, axis=1, kind="stable")[:, :3],
        )

    def test_input_scores_are_not_modified(self):
        scores = np.random.default_rng(9).random((64, 8)).astype(np.float32)
        before = scores.copy()
        top_k_indices(scores, 4)
        np.testing.assert_array_equal(scores, before)


class TestRouteTokens:
    def test_weights_sum_to_one_per_token(self):
        scores = softmax(np.random.default_rng(2).normal(size=(6, 8)))
        router = route_tokens(scores, 3)
        np.testing.assert_allclose(router.topk_weights.sum(axis=1), 1.0, rtol=1e-6)

    def test_loads_count_assignments(self):
        scores = softmax(np.random.default_rng(3).normal(size=(10, 4)))
        router = route_tokens(scores, 2)
        assert router.loads.sum() == 10 * 2

    def test_tokens_for_expert_matches_topk(self):
        scores = softmax(np.random.default_rng(4).normal(size=(8, 5)))
        router = route_tokens(scores, 2)
        for expert in router.activated_experts():
            rows = router.tokens_for_expert(expert)
            assert len(rows) == router.loads[expert]
            for row in rows:
                assert expert in router.topk_idx[row]

    def test_weights_for_expert_positive(self):
        scores = softmax(np.random.default_rng(5).normal(size=(8, 5)))
        router = route_tokens(scores, 2)
        for expert in router.activated_experts():
            assert (router.weights_for_expert(expert) > 0).all()

    def test_mean_scores_shape(self):
        scores = softmax(np.random.default_rng(6).normal(size=(4, 9)))
        router = route_tokens(scores, 2)
        assert router.mean_scores().shape == (9,)

    def test_mean_scores_computed_once_and_read_only(self):
        scores = softmax(np.random.default_rng(6).normal(size=(4, 9)))
        router = route_tokens(scores, 2)
        mean = router.mean_scores()
        np.testing.assert_array_equal(mean, scores.mean(axis=0))
        assert router.mean_scores() is mean
        with pytest.raises(ValueError):
            mean[0] = 0.0

    @given(
        logits=arrays(
            np.float32,
            st.tuples(st.integers(1, 30), st.just(9)),
            elements=st.floats(-4, 4, width=32),
        ),
        k=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_dispatch_groups_what_the_per_expert_scans_find(self, logits, k):
        """The cached grouped view lists, per expert, the rows and
        weights ``tokens_for_expert`` / ``weights_for_expert`` find,
        and per token its positions in ascending expert id."""
        router = route_tokens(softmax(logits), k)
        dispatch = router.dispatch
        assert router.dispatch is dispatch
        np.testing.assert_array_equal(np.diff(dispatch.offsets), router.loads)
        for expert in range(router.n_experts):
            group = slice(dispatch.offsets[expert], dispatch.offsets[expert + 1])
            np.testing.assert_array_equal(
                dispatch.tokens[group], router.tokens_for_expert(expert)
            )
            np.testing.assert_array_equal(
                dispatch.weights[group], router.weights_for_expert(expert)
            )
        assert dispatch.slots.shape == (k, router.n_tokens)
        expert_of = np.repeat(np.arange(router.n_experts), router.loads)
        np.testing.assert_array_equal(
            expert_of[dispatch.slots].T, np.sort(router.topk_idx, axis=1)
        )
        np.testing.assert_array_equal(
            dispatch.tokens[dispatch.slots],
            np.broadcast_to(np.arange(router.n_tokens), (k, router.n_tokens)),
        )

    @given(
        logits=arrays(
            np.float64,
            (7, 6),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        k=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_every_token_gets_k_distinct_experts(self, logits, k):
        router = route_tokens(softmax(logits), k)
        for row in router.topk_idx:
            assert len(set(int(e) for e in row)) == k

    @given(
        logits=arrays(
            np.float64,
            (5, 8),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        k=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_load_conservation(self, logits, k):
        router = route_tokens(softmax(logits), k)
        assert int(router.loads.sum()) == 5 * k
        assert len(router.activated_experts()) <= min(8, 5 * k)
