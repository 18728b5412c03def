"""Tests of the functional reference model and its routing dynamics."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models.model import ReferenceMoEModel
from repro.rng import derive_rng


class TestConstruction:
    def test_invalid_compute_dims(self, tiny_config):
        with pytest.raises(ConfigError):
            ReferenceMoEModel(tiny_config, d_model=0)

    def test_invalid_vocab(self, tiny_config):
        with pytest.raises(ConfigError):
            ReferenceMoEModel(tiny_config, vocab_size=1)

    def test_invalid_temperature(self, tiny_config):
        with pytest.raises(ConfigError):
            ReferenceMoEModel(tiny_config, gate_temperature=0.0)

    def test_invalid_coherence(self, tiny_config):
        with pytest.raises(ConfigError):
            ReferenceMoEModel(tiny_config, input_coherence=1.0)

    def test_same_seed_same_weights(self, tiny_config, prompt_tokens):
        a = ReferenceMoEModel(tiny_config, seed=3)
        b = ReferenceMoEModel(tiny_config, seed=3)
        ha, _, _ = a.forward(prompt_tokens)
        hb, _, _ = b.forward(prompt_tokens)
        np.testing.assert_array_equal(ha, hb)

    def test_different_seed_different_weights(self, tiny_config, prompt_tokens):
        a = ReferenceMoEModel(tiny_config, seed=3)
        b = ReferenceMoEModel(tiny_config, seed=4)
        ha, _, _ = a.forward(prompt_tokens)
        hb, _, _ = b.forward(prompt_tokens)
        assert not np.allclose(ha, hb)

    def test_weights_are_read_only(self, tiny_model):
        """Engines share one model, so no in-place write may reach it."""
        cfg = tiny_model.config
        experts = cfg.num_routed_experts + cfg.num_shared_experts
        arrays = list(tiny_model.weights())
        assert len(arrays) == 1 + cfg.num_layers * (2 + 3 * experts)
        assert any(a is tiny_model._layers[0].shared[0].w_down for a in arrays)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1


class TestForward:
    def test_forward_shapes(self, tiny_model, prompt_tokens):
        hidden, routers, state = tiny_model.forward(prompt_tokens)
        assert hidden.shape == (prompt_tokens.size, tiny_model.d_model)
        assert len(routers) == tiny_model.config.num_layers
        assert state.position == prompt_tokens.size

    def test_router_outputs_match_architecture(self, tiny_model, prompt_tokens):
        _, routers, _ = tiny_model.forward(prompt_tokens)
        for router in routers:
            assert router.n_experts == tiny_model.config.num_routed_experts
            assert router.k == tiny_model.config.num_activated_experts

    def test_decode_continues_state(self, tiny_model, prompt_tokens):
        _, _, state = tiny_model.forward(prompt_tokens)
        _, _, state = tiny_model.forward(np.array([5]), state)
        assert state.position == prompt_tokens.size + 1

    def test_hidden_states_finite_through_depth(self, tiny_config, prompt_tokens):
        deep = ReferenceMoEModel(tiny_config.with_layers(24), seed=0)
        hidden, _, _ = deep.forward(prompt_tokens)
        assert np.isfinite(hidden).all()

    def test_tokens_taken_modulo_vocab(self, tiny_model):
        a = tiny_model.embed(np.array([1]))
        b = tiny_model.embed(np.array([1 + tiny_model.vocab_size]))
        np.testing.assert_array_equal(a, b)

    def test_rejects_2d_tokens(self, tiny_model):
        with pytest.raises(ConfigError):
            tiny_model.embed(np.ones((2, 2), dtype=np.int64))


class TestMoEDecomposition:
    """Per-expert execution must recombine to the reference output."""

    def test_moe_forward_equals_manual_accumulation(self, tiny_model, prompt_tokens):
        state = tiny_model.new_state()
        x = tiny_model.prepare_inputs(prompt_tokens, state)
        h = tiny_model.attention(x, 0, state)
        z = tiny_model.moe_input(h)
        router = tiny_model.route(z, 0)
        reference = tiny_model.moe_forward(z, 0, router)
        manual = np.zeros_like(z)
        for expert in router.activated_experts():
            rows = router.tokens_for_expert(expert)
            weights = router.weights_for_expert(expert)
            out = tiny_model.expert_forward(z[rows], 0, expert)
            np.add.at(manual, rows, out * weights[:, None].astype(z.dtype))
        np.testing.assert_allclose(manual, reference, rtol=1e-6)

    def test_shared_forward_zero_without_shared(self, tiny_config):
        from dataclasses import replace

        config = replace(tiny_config, num_shared_experts=0, shared_expert_shape=None)
        model = ReferenceMoEModel(config, seed=0)
        z = derive_rng(0, "z").normal(size=(4, model.d_model)).astype(np.float32)
        assert np.allclose(model.shared_forward(z, 0), 0.0)


class TestRoutingDynamics:
    """The emergent statistics the paper's techniques rely on."""

    def test_gate_scores_rows_sum_to_one(self, tiny_model, prompt_tokens):
        state = tiny_model.new_state()
        x = tiny_model.prepare_inputs(prompt_tokens, state)
        z = tiny_model.moe_input(tiny_model.attention(x, 0, state))
        scores = tiny_model.gate_scores(z, 2)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=1e-5)

    def test_gate_scores_layer_out_of_range(self, tiny_model):
        z = np.zeros((1, tiny_model.d_model), dtype=np.float32)
        with pytest.raises(ConfigError):
            tiny_model.gate_scores(z, tiny_model.config.num_layers)

    def test_input_coherence_raises_step_correlation(self, tiny_config):
        """Higher coherence => higher consecutive-step score correlation."""

        def mean_corr(coherence: float) -> float:
            model = ReferenceMoEModel(
                tiny_config, seed=0, input_coherence=coherence
            )
            rng = derive_rng(1, "tokens")
            state = None
            prev, corrs = None, []
            _, _, state = model.forward(np.arange(8), state)
            for _ in range(12):
                token = int(rng.integers(0, model.vocab_size))
                _, routers, state = model.forward(np.array([token]), state)
                current = routers[0].mean_scores()
                if prev is not None:
                    corrs.append(float(np.corrcoef(prev, current)[0, 1]))
                prev = current
            return float(np.mean(corrs))

        assert mean_corr(0.8) > mean_corr(0.0)

    def test_sampled_decode_does_not_fixate(self, tiny_model, prompt_tokens):
        hidden, _, state = tiny_model.forward(prompt_tokens)
        rng = derive_rng(2, "sample")
        tokens = []
        last = hidden[-1]
        for _ in range(12):
            token = tiny_model.sample_next_token(last, rng)
            tokens.append(token)
            hidden, _, state = tiny_model.forward(np.array([token]), state)
            last = hidden[-1]
        assert len(set(tokens)) > 3

    def test_sample_rejects_bad_temperature(self, tiny_model, prompt_tokens):
        hidden, _, _ = tiny_model.forward(prompt_tokens)
        with pytest.raises(ConfigError):
            tiny_model.sample_next_token(hidden[-1], derive_rng(0, "s"), temperature=0)

    def test_greedy_next_token_deterministic(self, tiny_model, prompt_tokens):
        hidden, _, _ = tiny_model.forward(prompt_tokens)
        assert tiny_model.greedy_next_token(hidden[-1]) == tiny_model.greedy_next_token(
            hidden[-1]
        )


class TestDecodeState:
    def test_clone_is_independent(self, tiny_model, prompt_tokens):
        _, _, state = tiny_model.forward(prompt_tokens)
        clone = state.clone()
        tiny_model.forward(np.array([3]), state)
        assert clone.position == prompt_tokens.size
        assert state.position == prompt_tokens.size + 1


class TestPrepareInputs:
    """The coherence blend, with its embedding term computed for all
    tokens at once, is the token-by-token recurrence bit-for-bit."""

    @staticmethod
    def token_by_token(model, tokens, state):
        """``prepare_inputs`` as a per-token loop (every term in it)."""
        emb = model.embed(tokens)
        c = model.input_coherence
        blended = np.empty_like(emb)
        prev = state.input_ema
        for t in range(emb.shape[0]):
            if prev is None:
                current = emb[t]
            else:
                current = (1.0 - c) * emb[t] + c * prev
            current = model.rms_norm(current)
            blended[t] = current
            prev = current
        state.input_ema = prev.copy()
        return blended

    @pytest.mark.parametrize("n_tokens", [1, 2, 512])
    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "continuing"])
    def test_equals_token_by_token_recurrence(self, tiny_model, n_tokens, warm):
        tokens = derive_rng(4, "prepare").integers(0, 1000, size=n_tokens)
        state, expected_state = tiny_model.new_state(), tiny_model.new_state()
        if warm:
            for s in (state, expected_state):
                tiny_model.prepare_inputs(np.array([5, 9, 2]), s)
            assert state.input_ema is not None
        expected = self.token_by_token(tiny_model, tokens, expected_state)
        np.testing.assert_array_equal(
            tiny_model.prepare_inputs(tokens, state), expected
        )
        np.testing.assert_array_equal(state.input_ema, expected_state.input_ema)

    @pytest.mark.parametrize("coherence", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("d_model", [7, 32, 96])
    def test_in_place_normalisation_at_any_width(self, tiny_config, d_model, coherence):
        """The blend normalises rows in place with scalar arithmetic;
        odd widths and strong or weak coherence still give the
        ``rms_norm`` floats, across calls that continue one chain."""
        model = ReferenceMoEModel(
            tiny_config, d_model=d_model, seed=5, input_coherence=coherence
        )
        state, expected_state = model.new_state(), model.new_state()
        rng = derive_rng(6, "prepare")
        for n_tokens in (1, 37, 1, 64):
            tokens = rng.integers(0, 10_000, size=n_tokens)
            expected = self.token_by_token(model, tokens, expected_state)
            np.testing.assert_array_equal(model.prepare_inputs(tokens, state), expected)
            np.testing.assert_array_equal(state.input_ema, expected_state.input_ema)
