"""Trace capture: run the functional model and record routing decisions."""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import TraceError
from repro.models.gating import RouterOutput
from repro.models.model import ReferenceMoEModel, WeightSet
from repro.routing.statistics import expert_activation_frequency
from repro.routing.trace import LayerRouting, RoutingTrace, StepTrace
from repro.rng import derive_rng

__all__ = ["generate_trace", "WarmupProfile", "warmup_profile"]


def _router_to_layer_routing(layer: int, router: RouterOutput) -> LayerRouting:
    loads = router.loads.astype(np.int64)
    mean_scores = router.mean_scores().astype(np.float64)
    # A recorded trace is aliased by many readers (every engine on a model
    # shares its warmup profile): an in-place write must raise, not corrupt.
    loads.setflags(write=False)
    mean_scores.setflags(write=False)
    return LayerRouting(layer=layer, loads=loads, mean_scores=mean_scores)


def generate_trace(
    model: ReferenceMoEModel,
    prompt_tokens: np.ndarray,
    decode_steps: int = 0,
    seed: int = 0,
) -> RoutingTrace:
    """Run one prefill (plus optional decode) and record routing per layer.

    Parameters
    ----------
    model:
        The functional model to trace.
    prompt_tokens:
        1-D array of prompt token ids (the prefill batch).
    decode_steps:
        Number of auto-regressive decode tokens to append; each is a
        seeded temperature sample of the model's own continuation.
    seed:
        Seed of the decode token draws.

    Returns
    -------
    RoutingTrace
        One prefill step followed by ``decode_steps`` decode steps;
        its arrays are read-only.
    """
    prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
    if prompt_tokens.ndim != 1 or prompt_tokens.size == 0:
        raise TraceError("prompt_tokens must be a non-empty 1-D id array")

    rng = derive_rng(seed, "trace", model.config.name, "decode-tokens")
    steps: list[StepTrace] = []

    hidden, routers, state = model.forward(prompt_tokens)
    steps.append(
        StepTrace(
            kind="prefill",
            n_tokens=int(prompt_tokens.size),
            layers=[
                _router_to_layer_routing(layer, router)
                for layer, router in enumerate(routers)
            ],
        )
    )

    last_hidden = hidden[-1]
    for _ in range(decode_steps):
        token = model.sample_next_token(last_hidden, rng)
        hidden, routers, state = model.forward(np.array([token]), state)
        last_hidden = hidden[-1]
        steps.append(
            StepTrace(
                kind="decode",
                n_tokens=1,
                layers=[
                    _router_to_layer_routing(layer, router)
                    for layer, router in enumerate(routers)
                ],
            )
        )

    return RoutingTrace(
        model_name=model.config.name,
        num_layers=model.config.num_layers,
        num_experts=model.config.num_routed_experts,
        num_activated=model.config.num_activated_experts,
        steps=steps,
    )


@dataclass(frozen=True)
class WarmupProfile:
    """What the warmup phase (§IV-A) learns about one model's routing.

    ``trace`` is the profiling run, ``counts`` its activations per
    ``(layer, expert)`` and ``ranking`` every key, most activated first
    (ties in key order). Every engine on equal models aliases one
    instance, so its arrays are read-only.
    """

    trace: RoutingTrace
    counts: np.ndarray
    ranking: tuple[tuple[int, int], ...]


#: Profiles of each live weight set by the model's forward parameters
#: and ``(seed, prompt_len, decode_steps)``; an entry dies with its set.
_PROFILES: WeakKeyDictionary[WeightSet, dict] = WeakKeyDictionary()


def warmup_profile(
    model: ReferenceMoEModel, seed: int, prompt_len: int, decode_steps: int
) -> WarmupProfile:
    """The model's warmup profile, computed on first request: a pure
    function of the (immutable) weights, the forward parameters and the
    three arguments, so equal models share it."""
    profiles = _PROFILES.setdefault(model.weight_set, {})
    forward = (model.gate_temperature, model.residual_scale, model.input_coherence)
    key = (*forward, seed, prompt_len, decode_steps)
    if key not in profiles:
        rng = derive_rng(seed, "engine", "profile-tokens")
        prompt = rng.integers(0, model.vocab_size, size=prompt_len)
        trace = generate_trace(model, prompt, decode_steps=decode_steps, seed=seed)
        counts = expert_activation_frequency(trace)
        counts.setflags(write=False)
        # Flat order is (layer, expert) order: a stable sort breaks ties by key.
        order = np.argsort(-counts, axis=None, kind="stable").tolist()
        ranking = tuple(divmod(flat, trace.num_experts) for flat in order)
        profiles[key] = WarmupProfile(trace, counts, ranking)
    return profiles[key]
