"""Architecture configuration for MoE models.

The configuration mirrors Table II of the HybriMoE paper: number of
layers, shared/routed expert counts, activated experts per token, and
the weight shapes of shared and routed experts. Weight shapes drive the
*cost model* (bytes to transfer, FLOPs to compute); the functional numpy
model may run with scaled-down dimensions while keeping the same
architecture (see :class:`repro.models.model.ReferenceMoEModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError

__all__ = ["ExpertShape", "MoEModelConfig"]

#: Number of weight matrices in a SwiGLU feed-forward expert
#: (gate, up and down projections).
SWIGLU_MATRICES = 3


@dataclass(frozen=True)
class ExpertShape:
    """Shape of one expert's feed-forward block.

    Parameters
    ----------
    d_model:
        Input/output width of the expert (the model hidden size).
    d_ff:
        Intermediate (feed-forward) width.

    The paper reports expert sizes as ``(d_model, d_ff)`` pairs in
    Table II, e.g. ``(4096, 14336)`` for a Mixtral routed expert.
    """

    d_model: int
    d_ff: int

    def __post_init__(self) -> None:
        if self.d_model <= 0 or self.d_ff <= 0:
            raise ConfigError(
                f"expert dimensions must be positive, got ({self.d_model}, {self.d_ff})"
            )

    @property
    def param_count(self) -> int:
        """Total parameters of the SwiGLU block (gate, up, down matrices)."""
        return SWIGLU_MATRICES * self.d_model * self.d_ff

    def flops_per_token(self) -> int:
        """Multiply-accumulate FLOPs to run one token through the expert."""
        return 2 * self.param_count


@dataclass(frozen=True)
class MoEModelConfig:
    """Architecture description of an MoE model (paper Table II).

    Parameters
    ----------
    name:
        Human-readable identifier (``"mixtral"``, ``"qwen2"``, ...).
    num_layers:
        Number of transformer layers, each containing one MoE block.
    num_shared_experts:
        Experts activated for *every* token (0 for Mixtral).
    num_routed_experts:
        Size of the routed expert pool per layer.
    num_activated_experts:
        Top-K routed experts activated per token.
    routed_expert_shape:
        Weight shape of each routed expert.
    shared_expert_shape:
        Weight shape of each shared expert, or ``None`` when the model
        has no shared experts.
    """

    name: str
    num_layers: int
    num_shared_experts: int
    num_routed_experts: int
    num_activated_experts: int
    routed_expert_shape: ExpertShape
    shared_expert_shape: ExpertShape | None = None

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ConfigError(f"num_layers must be positive, got {self.num_layers}")
        if self.num_routed_experts <= 0:
            raise ConfigError(
                f"num_routed_experts must be positive, got {self.num_routed_experts}"
            )
        if not 0 < self.num_activated_experts <= self.num_routed_experts:
            raise ConfigError(
                "num_activated_experts must be in [1, num_routed_experts], got "
                f"{self.num_activated_experts} of {self.num_routed_experts}"
            )
        if self.num_shared_experts < 0:
            raise ConfigError(
                f"num_shared_experts must be non-negative, got {self.num_shared_experts}"
            )
        if self.num_shared_experts > 0 and self.shared_expert_shape is None:
            raise ConfigError(
                f"model {self.name!r} declares shared experts but no shared_expert_shape"
            )

    @property
    def total_routed_experts(self) -> int:
        """Routed experts across all layers (the cacheable population)."""
        return self.num_layers * self.num_routed_experts

    def with_layers(self, num_layers: int) -> "MoEModelConfig":
        """Return a copy with a different layer count (for fast tests)."""
        return replace(self, num_layers=num_layers, name=f"{self.name}-l{num_layers}")

    def describe(self) -> str:
        """One-line human-readable summary used in reports."""
        shared = (
            f"{self.num_shared_experts} shared {self.shared_expert_shape.d_model}x"
            f"{self.shared_expert_shape.d_ff}"
            if self.shared_expert_shape is not None and self.num_shared_experts
            else "no shared"
        )
        return (
            f"{self.name}: {self.num_layers} layers, "
            f"{self.num_routed_experts} routed experts "
            f"({self.routed_expert_shape.d_model}x{self.routed_expert_shape.d_ff}), "
            f"top-{self.num_activated_experts}, {shared}"
        )
