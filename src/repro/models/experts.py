"""SwiGLU expert feed-forward kernels.

Each expert is a SwiGLU block — the structure used by Mixtral, Qwen2 and
DeepSeek alike:

.. math::

    E(x) = \\left( \\mathrm{SiLU}(x W_g) \\odot (x W_u) \\right) W_d

Weights are plain numpy arrays; initialisation is variance-scaled so
hidden-state magnitudes stay stable as depth grows (the functional model
relies on a well-behaved residual stream for realistic routing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = ["silu", "ExpertWeights", "init_expert", "expert_forward"]


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation, ``x * sigmoid(x)``, computed stably."""
    # Clip the exponent argument to avoid overflow warnings for large
    # negative inputs; sigmoid saturates well before +-40.
    z = x.clip(-40.0, 40.0)
    return x / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class ExpertWeights:
    """Weights of one SwiGLU expert.

    Attributes
    ----------
    w_gate:
        Gate projection, shape ``(d_model, d_ff)``.
    w_up:
        Up projection, shape ``(d_model, d_ff)``.
    w_down:
        Down projection, shape ``(d_ff, d_model)``.
    """

    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray

    def __post_init__(self) -> None:
        d_model, d_ff = self.w_gate.shape
        if self.w_up.shape != (d_model, d_ff):
            raise ConfigError(
                f"w_up shape {self.w_up.shape} != w_gate shape {(d_model, d_ff)}"
            )
        if self.w_down.shape != (d_ff, d_model):
            raise ConfigError(
                f"w_down shape {self.w_down.shape} != expected {(d_ff, d_model)}"
            )

    @property
    def d_model(self) -> int:
        return int(self.w_gate.shape[0])

    @property
    def d_ff(self) -> int:
        return int(self.w_gate.shape[1])

    @property
    def param_count(self) -> int:
        return self.w_gate.size + self.w_up.size + self.w_down.size


def init_expert(rng: np.random.Generator, d_model: int, d_ff: int) -> ExpertWeights:
    """Initialise one expert with variance-scaled Gaussian weights.

    The scale is chosen so that for unit-RMS input the expert output has
    RMS well below one; the residual stream then drifts slowly across
    layers, which is exactly the property the paper's prefetcher exploits
    (adjacent layers see similar hidden states).
    """
    if d_model <= 0 or d_ff <= 0:
        raise ConfigError(f"expert dims must be positive, got ({d_model}, {d_ff})")
    in_scale = 1.0 / np.sqrt(d_model)
    out_scale = 1.0 / np.sqrt(d_ff)
    return ExpertWeights(
        w_gate=rng.normal(0.0, in_scale, size=(d_model, d_ff)),
        w_up=rng.normal(0.0, in_scale, size=(d_model, d_ff)),
        w_down=rng.normal(0.0, out_scale, size=(d_ff, d_model)),
    )


def expert_forward(x: np.ndarray, weights: ExpertWeights) -> np.ndarray:
    """Run tokens through one expert.

    Parameters
    ----------
    x:
        Token activations of shape ``(n_tokens, d_model)``.
    weights:
        The expert's SwiGLU weights.

    Returns
    -------
    numpy.ndarray
        Expert output of shape ``(n_tokens, d_model)``.
    """
    if x.ndim != 2 or x.shape[1] != weights.d_model:
        raise ConfigError(
            f"input shape {x.shape} incompatible with expert d_model={weights.d_model}"
        )
    gate = silu(x @ weights.w_gate)
    up = x @ weights.w_up
    return (gate * up) @ weights.w_down
