"""Routing traces: capture and statistics.

The scheduling system consumes *routing decisions* (which experts each
token activates, with what scores). This package records those decisions
from :class:`~repro.models.model.ReferenceMoEModel` runs and computes
the statistics behind the paper's motivation figures (Fig. 3a-c) and
the kTransformers frequency-pinning baseline.
"""

from repro.routing.generator import WarmupProfile, generate_trace, warmup_profile
from repro.routing.statistics import (
    activation_cdf,
    adjacent_layer_overlap,
    expert_activation_frequency,
    predicted_routing_profile,
    prefill_load_distribution,
    reuse_probability_by_rank,
    synthetic_neuron_activation_cdf,
)
from repro.routing.trace import LayerRouting, RoutingTrace, StepTrace

__all__ = [
    "LayerRouting",
    "StepTrace",
    "RoutingTrace",
    "generate_trace",
    "WarmupProfile",
    "warmup_profile",
    "activation_cdf",
    "adjacent_layer_overlap",
    "expert_activation_frequency",
    "predicted_routing_profile",
    "prefill_load_distribution",
    "reuse_probability_by_rank",
    "synthetic_neuron_activation_cdf",
]
