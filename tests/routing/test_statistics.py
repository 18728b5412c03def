"""Routing statistics behind the Fig. 3 motivation analyses."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.routing.generator import generate_trace
from repro.routing.statistics import (
    activation_cdf,
    adjacent_layer_overlap,
    expert_activation_frequency,
    prefill_load_distribution,
    reuse_probability_by_rank,
    synthetic_neuron_activation_cdf,
)
from repro.routing.trace import LayerRouting, RoutingTrace, StepTrace


@pytest.fixture
def trace(tiny_model, prompt_tokens):
    return generate_trace(tiny_model, prompt_tokens, decode_steps=16, seed=2)


class TestActivationCdf:
    def test_monotone_and_normalised(self, trace):
        proportion, cumulative = activation_cdf(trace)
        assert np.all(np.diff(cumulative) >= -1e-12)
        assert cumulative[-1] == pytest.approx(1.0)
        assert proportion[-1] == pytest.approx(1.0)

    def test_neuron_cdf_more_skewed_than_experts(self, trace):
        """The Fig. 3a contrast: neurons concentrate, experts spread."""
        prop_e, cum_e = activation_cdf(trace)
        prop_n, cum_n = synthetic_neuron_activation_cdf(seed=0)
        at = 0.2
        assert np.interp(at, prop_n, cum_n) > np.interp(at, prop_e, cum_e)

    def test_neuron_cdf_invalid_size(self):
        with pytest.raises(TraceError):
            synthetic_neuron_activation_cdf(n_neurons=0)


class TestReuseProbability:
    def test_shape_and_range(self, trace):
        reuse = reuse_probability_by_rank(trace)
        assert reuse.shape == (trace.num_experts,)
        assert ((0.0 <= reuse) & (reuse <= 1.0)).all()

    def test_top_ranks_beat_bottom_ranks(self, trace):
        """The Fig. 3b signal that justifies score-aware caching."""
        reuse = reuse_probability_by_rank(trace)
        k = trace.num_activated
        assert reuse[:k].mean() > reuse[-k:].mean()

    def test_needs_two_decode_steps(self, tiny_model, prompt_tokens):
        short = generate_trace(tiny_model, prompt_tokens, decode_steps=1, seed=0)
        with pytest.raises(TraceError):
            reuse_probability_by_rank(short)


class TestLoadDistribution:
    def test_sorted_descending(self, trace):
        loads = prefill_load_distribution(trace, layer=1)
        assert np.all(np.diff(loads) <= 0)

    def test_conserves_assignments(self, trace, prompt_tokens):
        loads = prefill_load_distribution(trace)
        assert loads.sum() == prompt_tokens.size * trace.num_activated

    def test_layer_out_of_range(self, trace):
        with pytest.raises(TraceError):
            prefill_load_distribution(trace, layer=99)

    def test_requires_prefill(self, trace):
        from repro.routing.trace import RoutingTrace

        decode_only = RoutingTrace(
            trace.model_name,
            trace.num_layers,
            trace.num_experts,
            trace.num_activated,
            trace.decode_steps(),
        )
        with pytest.raises(TraceError):
            prefill_load_distribution(decode_only)


class TestLayerOverlap:
    def test_in_unit_interval(self, trace):
        overlap = adjacent_layer_overlap(trace)
        assert 0.0 <= overlap <= 1.0

    def test_distance_validation(self, trace):
        with pytest.raises(TraceError):
            adjacent_layer_overlap(trace, distance=0)


def _alternating_trace(num_layers=4):
    """One decode step: even layers activate experts {0, 1}, odd layers
    {1, 2} — Jaccard overlap 1 at even distances, 1/3 at odd ones."""
    layers = [
        LayerRouting(
            layer=layer,
            loads=np.array([1, 1, 0, 0] if layer % 2 == 0 else [0, 1, 1, 0]),
            mean_scores=np.full(4, 0.25),
        )
        for layer in range(num_layers)
    ]
    return RoutingTrace(
        model_name="alternating",
        num_layers=num_layers,
        num_experts=4,
        num_activated=2,
        steps=[StepTrace(kind="decode", n_tokens=1, layers=layers)],
    )


class TestLayerOverlapValues:
    @pytest.mark.parametrize("distance, overlap", [(1, 1 / 3), (2, 1.0), (3, 1 / 3)])
    def test_mean_jaccard_of_layer_pairs(self, distance, overlap):
        assert adjacent_layer_overlap(_alternating_trace(), distance) == pytest.approx(
            overlap
        )

    def test_distance_past_the_last_layer_has_no_pairs(self):
        with pytest.raises(TraceError, match="no layer pairs"):
            adjacent_layer_overlap(_alternating_trace(), distance=4)


class TestFrequency:
    def test_counts_bounded_by_steps(self, trace):
        counts = expert_activation_frequency(trace)
        assert counts.shape == (trace.num_layers, trace.num_experts)
        assert counts.max() <= trace.num_steps
