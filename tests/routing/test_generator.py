"""Trace generation from the functional model."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.routing.generator import generate_trace


class TestGenerateTrace:
    def test_structure(self, tiny_model, prompt_tokens):
        trace = generate_trace(tiny_model, prompt_tokens, decode_steps=4, seed=1)
        assert trace.num_steps == 5
        assert trace.steps[0].kind == "prefill"
        assert all(s.kind == "decode" for s in trace.steps[1:])
        assert trace.num_layers == tiny_model.config.num_layers
        assert trace.num_experts == tiny_model.config.num_routed_experts

    def test_prefill_load_conservation(self, tiny_model, prompt_tokens):
        trace = generate_trace(tiny_model, prompt_tokens, seed=1)
        k = tiny_model.config.num_activated_experts
        for routing in trace.steps[0].layers:
            assert routing.loads.sum() == prompt_tokens.size * k

    def test_decode_load_conservation(self, tiny_model, prompt_tokens):
        trace = generate_trace(tiny_model, prompt_tokens, decode_steps=3, seed=1)
        k = tiny_model.config.num_activated_experts
        for step in trace.decode_steps():
            for routing in step.layers:
                assert routing.loads.sum() == k

    def test_deterministic(self, tiny_model, prompt_tokens):
        a = generate_trace(tiny_model, prompt_tokens, decode_steps=3, seed=5)
        b = generate_trace(tiny_model, prompt_tokens, decode_steps=3, seed=5)
        for sa, sb in zip(a.steps, b.steps):
            for la, lb in zip(sa.layers, sb.layers):
                np.testing.assert_array_equal(la.loads, lb.loads)

    def test_decode_routing_depends_on_seed(self, tiny_model, prompt_tokens):
        """Decode tokens are seeded samples: another seed draws another
        continuation, while the prefill, which samples nothing, is equal."""
        a = generate_trace(tiny_model, prompt_tokens, decode_steps=6, seed=5)
        b = generate_trace(tiny_model, prompt_tokens, decode_steps=6, seed=6)
        for la, lb in zip(a.steps[0].layers, b.steps[0].layers):
            np.testing.assert_array_equal(la.loads, lb.loads)
        assert any(
            not np.array_equal(sa.layers[0].loads, sb.layers[0].loads)
            for sa, sb in zip(a.decode_steps(), b.decode_steps())
        )

    def test_step_token_counts(self, tiny_model, prompt_tokens):
        """The prefill step carries the prompt, each decode step one
        token, and no decode steps leaves the prefill alone."""
        trace = generate_trace(tiny_model, prompt_tokens, decode_steps=2, seed=1)
        assert [s.n_tokens for s in trace.steps] == [prompt_tokens.size, 1, 1]
        assert generate_trace(tiny_model, prompt_tokens).num_steps == 1

    def test_empty_prompt_rejected(self, tiny_model):
        with pytest.raises(TraceError):
            generate_trace(tiny_model, np.array([], dtype=np.int64))

