"""Model presets matching Table II of the HybriMoE paper.

================  ========  ========  ==========
Field             Mixtral   Qwen2     DeepSeek
================  ========  ========  ==========
#Layers           32        28        26
#Shared Experts   0         1         2
#Routed Experts   8         64        64
#Activated        2         8         6
Shared size       /         3584x20480  2048x1408
Routed size       4096x14336  3584x18944  2048x1408
================  ========  ========  ==========

``get_preset(name, num_layers)`` returns layer-reduced copies for fast
tests; :func:`preset_model` builds their functional models.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.models.config import ExpertShape, MoEModelConfig
from repro.models.model import ReferenceMoEModel

__all__ = [
    "mixtral_8x7b",
    "qwen2_57b_a14b",
    "deepseek_v2_lite",
    "MODEL_PRESETS",
    "get_preset",
    "preset_model",
]


def mixtral_8x7b() -> MoEModelConfig:
    """Mixtral-8x7B-Instruct: few large experts, no shared expert."""
    return MoEModelConfig(
        name="mixtral",
        num_layers=32,
        num_shared_experts=0,
        num_routed_experts=8,
        num_activated_experts=2,
        routed_expert_shape=ExpertShape(4096, 14336),
        shared_expert_shape=None,
    )


def qwen2_57b_a14b() -> MoEModelConfig:
    """Qwen2-57B-A14B-Instruct: many medium experts plus one shared."""
    return MoEModelConfig(
        name="qwen2",
        num_layers=28,
        num_shared_experts=1,
        num_routed_experts=64,
        num_activated_experts=8,
        routed_expert_shape=ExpertShape(3584, 18944),
        shared_expert_shape=ExpertShape(3584, 20480),
    )


def deepseek_v2_lite() -> MoEModelConfig:
    """DeepSeek-V2-Lite-Chat: many small experts plus two shared."""
    return MoEModelConfig(
        name="deepseek",
        num_layers=26,
        num_shared_experts=2,
        num_routed_experts=64,
        num_activated_experts=6,
        routed_expert_shape=ExpertShape(2048, 1408),
        shared_expert_shape=ExpertShape(2048, 1408),
    )


#: Registry of the three evaluated models, keyed by short name.
MODEL_PRESETS = {
    "mixtral": mixtral_8x7b,
    "qwen2": qwen2_57b_a14b,
    "deepseek": deepseek_v2_lite,
}


def get_preset(name: str, num_layers: int | None = None) -> MoEModelConfig:
    """Look up a preset by name, optionally overriding the layer count.

    Parameters
    ----------
    name:
        One of ``"mixtral"``, ``"qwen2"``, ``"deepseek"``.
    num_layers:
        When given, return a layer-reduced copy (used by fast tests and
        CI-sized benchmark runs); the preset's own depth returns the
        preset itself, so both spellings name one architecture.
    """
    try:
        factory = MODEL_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_PRESETS))
        raise ConfigError(f"unknown model preset {name!r} (known: {known})") from None
    config = factory()
    if num_layers not in (None, config.num_layers):
        config = config.with_layers(num_layers)
    return config


def preset_model(name: str, num_layers: int | None = None, seed: int = 0) -> ReferenceMoEModel:
    """The preset's functional model: the one by-name builder. Equal
    models share one read-only weight set and its warmup profile while
    any lives, so a second build costs no weights and no profiling."""
    return ReferenceMoEModel(get_preset(name, num_layers), seed=seed)
