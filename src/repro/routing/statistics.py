"""Routing statistics behind the paper's motivation analyses (Fig. 3a-c).

All functions operate on recorded :class:`~repro.routing.trace.RoutingTrace`
objects (or, for the predicted routing profile, directly on a model) and return
plain numpy arrays ready for tabulation or plotting.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.models.model import ReferenceMoEModel
from repro.routing.trace import RoutingTrace
from repro.rng import derive_rng

__all__ = [
    "activation_cdf",
    "synthetic_neuron_activation_cdf",
    "reuse_probability_by_rank",
    "prefill_load_distribution",
    "adjacent_layer_overlap",
    "expert_activation_frequency",
    "predicted_routing_profile",
]


def expert_activation_frequency(trace: RoutingTrace) -> np.ndarray:
    """Activation counts per ``(layer, expert)`` across all steps.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(num_layers, num_experts)``. This is the
        profiling signal the kTransformers baseline pins experts with.
    """
    counts = np.zeros((trace.num_layers, trace.num_experts), dtype=np.int64)
    for step in trace.steps:
        for routing in step.layers:
            counts[routing.layer] += (routing.loads > 0).astype(np.int64)
    return counts


def activation_cdf(trace: RoutingTrace) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative activation frequency curve (paper Fig. 3a).

    Experts (pooled over layers) are sorted by activation count
    descending; the curve maps the top ``x`` fraction of experts to the
    fraction of all activations they account for. A flat, diagonal-like
    curve means evenly spread activations (the MoE behaviour that makes
    static mapping ineffective).

    Returns
    -------
    tuple
        ``(expert_proportion, cumulative_activation)`` both in ``[0, 1]``.
    """
    counts = expert_activation_frequency(trace).ravel().astype(np.float64)
    if counts.sum() == 0:
        raise TraceError("trace contains no activations")
    ordered = np.sort(counts)[::-1]
    cumulative = np.cumsum(ordered) / ordered.sum()
    proportion = np.arange(1, ordered.size + 1) / ordered.size
    return proportion, cumulative


def synthetic_neuron_activation_cdf(
    n_neurons: int = 4096, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic stand-in for the OPT neuron-activation CDF of Fig. 3a.

    PowerInfer-style neuron-level sparsity is highly skewed (a few hot
    neurons dominate). Absent the OPT model, we model neuron activation
    frequencies with a Zipf law of exponent 1.2, which reproduces the
    qualitative contrast against the near-uniform expert curve.
    """
    if n_neurons <= 0:
        raise TraceError(f"n_neurons must be positive, got {n_neurons}")
    rng = derive_rng(seed, "synthetic-neuron-cdf")
    ranks = np.arange(1, n_neurons + 1, dtype=np.float64)
    freqs = ranks ** -1.2
    freqs *= 1.0 + 0.05 * rng.standard_normal(n_neurons)
    freqs = np.clip(freqs, 1e-9, None)
    ordered = np.sort(freqs)[::-1]
    cumulative = np.cumsum(ordered) / ordered.sum()
    proportion = ranks / n_neurons
    return proportion, cumulative


def reuse_probability_by_rank(trace: RoutingTrace) -> np.ndarray:
    """P(expert activated at step t+1) by its score rank at step t (Fig. 3b).

    For every consecutive pair of *decode* steps and every layer, experts
    are ranked by their step-``t`` mean routing score (rank 0 = highest).
    The returned array gives, per rank, the empirical probability that
    the expert at that rank is activated at step ``t+1``. A monotonically
    decreasing curve is the signal exploited by score-aware caching.
    """
    decode = trace.decode_steps()
    if len(decode) < 2:
        raise TraceError("need at least two decode steps for reuse probability")
    hits = np.zeros(trace.num_experts, dtype=np.float64)
    totals = 0
    for prev, nxt in zip(decode[:-1], decode[1:]):
        for layer in range(trace.num_layers):
            order = np.argsort(-prev.layers[layer].mean_scores, kind="stable")
            activated_next = nxt.layers[layer].loads > 0
            hits += activated_next[order]
            totals += 1
    return hits / totals


def prefill_load_distribution(trace: RoutingTrace, layer: int = 0) -> np.ndarray:
    """Per-expert token loads in a prefill forward, sorted desc (Fig. 3c)."""
    prefill = trace.prefill_steps()
    if not prefill:
        raise TraceError("trace contains no prefill step")
    if not 0 <= layer < trace.num_layers:
        raise TraceError(f"layer {layer} out of range [0, {trace.num_layers})")
    loads = prefill[0].layers[layer].loads.astype(np.int64)
    return np.sort(loads)[::-1]


def adjacent_layer_overlap(trace: RoutingTrace, distance: int = 1) -> float:
    """Mean Jaccard overlap of activated sets between layers ``l``/``l+d``.

    High overlap between nearby layers is one of the structural patterns
    (Opportunity 1) that make cross-layer prefetching worthwhile.
    """
    if distance < 1:
        raise TraceError(f"distance must be >= 1, got {distance}")
    overlaps: list[float] = []
    for step in trace.steps:
        for layer in range(trace.num_layers - distance):
            a = set(step.layers[layer].activated())
            b = set(step.layers[layer + distance].activated())
            union = a | b
            if union:
                overlaps.append(len(a & b) / len(union))
    if not overlaps:
        raise TraceError("no layer pairs with activations found")
    return float(np.mean(overlaps))


def predicted_routing_profile(
    model: ReferenceMoEModel, prompt_tokens: np.ndarray
) -> np.ndarray:
    """Per-``(layer, expert)`` token loads of a prompt's prefill routing.

    Runs one stateless prefill forward of ``prompt_tokens`` through the
    model's routers and counts, per layer, how many prompt tokens
    select each expert — the routing profile the prompt would impose at
    admission. This is the **cache-affinity signal** fleet routing uses
    (LayerScope-style): a replica whose expert cache already holds the
    profile's hot experts will serve the request with fewer fetches.

    The forward is pure model math on a private decode state — no
    engine cache, clock or strategy is touched, so profiling a prompt
    never perturbs a replica's serving behaviour. Deterministic per
    ``(model, prompt)``.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(num_layers, num_experts)``; entry
        ``[l, e]`` is the number of prompt tokens routed to expert
        ``e`` at layer ``l``.
    """
    prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
    if prompt_tokens.ndim != 1 or prompt_tokens.size == 0:
        raise TraceError("prompt_tokens must be a non-empty 1-D id array")
    state = model.new_state()
    x = model.prepare_inputs(prompt_tokens, state)
    num_experts = model.config.num_routed_experts
    counts = np.zeros((model.config.num_layers, num_experts), dtype=np.int64)
    for layer in range(model.config.num_layers):
        h = model.attention(x, layer, state)
        z = model.moe_input(h)
        router = model.route(z, layer)
        counts[layer] = np.bincount(
            router.topk_idx.ravel(), minlength=num_experts
        )
        moe_out = model.shared_forward(z, layer) + model.moe_forward(z, layer, router)
        x = h + model.residual_scale * moe_out
    return counts
