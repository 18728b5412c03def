"""Routing trace containers.

A :class:`RoutingTrace` is a sequence of :class:`StepTrace` objects (one
per forward pass: a whole prefill batch or a single decode token), each
holding one :class:`LayerRouting` per MoE layer. Traces are the exchange
format between the model substrate, the statistics module, and the
frequency-based baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError

__all__ = ["LayerRouting", "StepTrace", "RoutingTrace"]

_PREFILL = "prefill"
_DECODE = "decode"


@dataclass(frozen=True)
class LayerRouting:
    """Routing decision of one MoE layer for one forward step.

    Attributes
    ----------
    layer:
        Layer index.
    loads:
        Tokens routed to each expert, shape ``(n_experts,)``.
    mean_scores:
        Softmax scores averaged over the step's tokens, shape
        ``(n_experts,)`` — the signal consumed by the MRS cache.
    """

    layer: int
    loads: np.ndarray
    mean_scores: np.ndarray

    def __post_init__(self) -> None:
        if self.loads.shape != self.mean_scores.shape:
            raise TraceError(
                f"loads shape {self.loads.shape} != scores shape {self.mean_scores.shape}"
            )

    @property
    def n_experts(self) -> int:
        return int(self.loads.shape[0])

    def activated(self) -> list[int]:
        """Expert ids with at least one routed token."""
        return [int(e) for e in np.flatnonzero(self.loads > 0)]


@dataclass(frozen=True)
class StepTrace:
    """All layers' routing for one forward step."""

    kind: str
    n_tokens: int
    layers: list[LayerRouting]

    def __post_init__(self) -> None:
        if self.kind not in (_PREFILL, _DECODE):
            raise TraceError(f"step kind must be 'prefill' or 'decode', got {self.kind!r}")
        if self.n_tokens <= 0:
            raise TraceError(f"n_tokens must be positive, got {self.n_tokens}")
        for index, routing in enumerate(self.layers):
            if routing.layer != index:
                raise TraceError(
                    f"layer routing at position {index} claims layer {routing.layer}"
                )

    @property
    def is_prefill(self) -> bool:
        return self.kind == _PREFILL


@dataclass
class RoutingTrace:
    """A recorded model run: metadata plus an ordered list of steps."""

    model_name: str
    num_layers: int
    num_experts: int
    num_activated: int
    steps: list[StepTrace]

    def __post_init__(self) -> None:
        for step in self.steps:
            if len(step.layers) != self.num_layers:
                raise TraceError(
                    f"step has {len(step.layers)} layers, trace declares {self.num_layers}"
                )
            for routing in step.layers:
                if routing.n_experts != self.num_experts:
                    raise TraceError(
                        f"layer {routing.layer} has {routing.n_experts} experts, "
                        f"trace declares {self.num_experts}"
                    )

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def decode_steps(self) -> list[StepTrace]:
        return [step for step in self.steps if step.kind == _DECODE]

    def prefill_steps(self) -> list[StepTrace]:
        return [step for step in self.steps if step.kind == _PREFILL]
