"""Functional numpy MoE model with realistic routing dynamics.

:class:`ReferenceMoEModel` is a scaled-down but *structurally faithful*
MoE transformer: tokens are embedded, flow through ``num_layers``
pre-norm residual layers, and each layer routes tokens through a softmax
top-K gate to SwiGLU experts (plus always-active shared experts, as in
Qwen2/DeepSeek — paper Fig. 2).

Why a functional model rather than a canned trace? The three phenomena
the paper's techniques exploit all *emerge* from the residual-stream
mechanics instead of being hard-coded:

- **temporal reuse correlation** (Fig. 3b) — decode hidden states evolve
  slowly because the attention context is a running mean over past
  tokens, so consecutive steps produce correlated gate scores;
- **adjacent-layer similarity** (the basis of §IV-C prefetching) — each
  layer adds a small residual update, so applying layer ``l+k``'s gate to
  layer ``l``'s hidden state predicts layer ``l+k``'s routing well;
- **uneven per-expert loads in prefill** (Fig. 3c) — multinomial top-K
  routing over a finite batch is naturally imbalanced.

The hidden dimensions default to small values so a full forward pass is
cheap; the *cost model* uses the paper-scale shapes from the
:class:`~repro.models.config.MoEModelConfig`, never these compute dims.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from weakref import WeakValueDictionary

import numpy as np

from repro.errors import ConfigError
from repro.models.config import MoEModelConfig
from repro.models.experts import ExpertWeights, expert_forward, init_expert
from repro.models.gating import RouterOutput, route_tokens, softmax
from repro.rng import derive_rng

__all__ = [
    "DecodeState",
    "LayerWeights",
    "ReferenceMoEModel",
    "SequenceStateStore",
    "WeightSet",
]

_EPS = 1e-6


@dataclass
class DecodeState:
    """Running per-layer attention context for incremental decoding.

    Attributes
    ----------
    position:
        Number of tokens processed so far (prefill + decode).
    ctx_sum:
        Per-layer running sums of normalised attention inputs, each of
        shape ``(d_model,)``; the attention stub uses their running mean
        as a causal context vector.
    input_ema:
        Last blended input representation (coherence chain across
        consecutive tokens), or ``None`` before the first token.
    """

    position: int = 0
    ctx_sum: list[np.ndarray] = field(default_factory=list)
    input_ema: np.ndarray | None = None


@dataclass(frozen=True)
class LayerWeights:
    """All weights of one transformer layer of the functional model."""

    w_attn: np.ndarray
    w_gate: np.ndarray
    routed: list[ExpertWeights]
    shared: list[ExpertWeights]


@dataclass(frozen=True, eq=False)  # hashed by identity: keys weak maps
class WeightSet:
    """The embedding and every layer's weights: what equal models share."""

    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]


#: Live weight sets by ``(config, d_model, d_ff, vocab_size, seed)``.
_WEIGHT_SETS: WeakValueDictionary[tuple, WeightSet] = WeakValueDictionary()


class ReferenceMoEModel:
    """A functional MoE transformer used as the routing/numerics substrate.

    Parameters
    ----------
    config:
        Architecture (layer/expert counts) — typically a Table II preset.
    d_model, d_ff:
        Compute dimensions of the numpy weights. These are deliberately
        small; timing always comes from ``config``'s paper-scale shapes.
    vocab_size:
        Size of the synthetic token vocabulary.
    seed:
        Root seed; all weights derive deterministically from it. Equal
        models (by the five arguments above) run on one read-only
        :class:`WeightSet`, built only when no live model holds it.
    gate_temperature:
        Softmax temperature of the router. Higher values flatten expert
        usage (MoE-like, Fig. 3a); lower values concentrate it.
    residual_scale:
        Magnitude of each residual update relative to the stream. Small
        values increase adjacent-layer similarity (and therefore the
        accuracy of gate-reuse prediction).
    input_coherence:
        Blend factor of consecutive token inputs, modelling the
        coherence of natural text: the effective input of token ``t`` is
        ``(1 - c) * emb(token_t) + c * input_{t-1}`` (renormalised).
        Zero gives i.i.d. inputs; values near one make consecutive
        decode steps route almost identically. This is the knob behind
        the temporal reuse correlation of paper Fig. 3b.
    """

    def __init__(
        self,
        config: MoEModelConfig,
        d_model: int = 32,
        d_ff: int = 64,
        vocab_size: int = 512,
        seed: int = 0,
        gate_temperature: float = 0.7,
        residual_scale: float = 0.12,
        input_coherence: float = 0.3,
    ) -> None:
        if d_model <= 0 or d_ff <= 0:
            raise ConfigError(f"compute dims must be positive, got ({d_model}, {d_ff})")
        if vocab_size <= 1:
            raise ConfigError(f"vocab_size must be > 1, got {vocab_size}")
        if gate_temperature <= 0:
            raise ConfigError(f"gate_temperature must be positive, got {gate_temperature}")
        if not 0.0 <= input_coherence < 1.0:
            raise ConfigError(
                f"input_coherence must be in [0, 1), got {input_coherence}"
            )
        self.config = config
        self.d_model = d_model
        self.d_ff = d_ff
        self.vocab_size = vocab_size
        self.seed = seed
        self.gate_temperature = gate_temperature
        self.residual_scale = residual_scale
        self.input_coherence = input_coherence

        key = (config, d_model, d_ff, vocab_size, seed)
        self.weight_set = _WEIGHT_SETS.get(key)
        if self.weight_set is None:
            emb_rng = derive_rng(seed, "model", config.name, "embedding")
            embedding = emb_rng.normal(0.0, 1.0, size=(vocab_size, d_model))
            self.weight_set = _WEIGHT_SETS[key] = WeightSet(
                embedding.astype(np.float32),
                tuple(self._init_layer(layer) for layer in range(config.num_layers)),
            )
            for array in self.weights():
                array.setflags(write=False)
        self._embedding, self._layers = self.weight_set.embedding, self.weight_set.layers

    def _init_layer(self, layer: int) -> LayerWeights:
        cfg = self.config
        attn_rng = derive_rng(self.seed, "model", cfg.name, "attn", layer)
        gate_rng = derive_rng(self.seed, "model", cfg.name, "gate", layer)
        w_attn = attn_rng.normal(
            0.0, 1.0 / np.sqrt(self.d_model), size=(self.d_model, self.d_model)
        ).astype(np.float32)
        w_gate = gate_rng.normal(
            0.0, 1.0, size=(self.d_model, cfg.num_routed_experts)
        ).astype(np.float32) / np.sqrt(self.d_model, dtype=np.float32)
        routed = [
            _as_float32(
                init_expert(
                    derive_rng(self.seed, "model", cfg.name, "expert", layer, e),
                    self.d_model,
                    self.d_ff,
                )
            )
            for e in range(cfg.num_routed_experts)
        ]
        shared = [
            _as_float32(
                init_expert(
                    derive_rng(self.seed, "model", cfg.name, "shared", layer, s),
                    self.d_model,
                    self.d_ff,
                )
            )
            for s in range(cfg.num_shared_experts)
        ]
        return LayerWeights(w_attn=w_attn, w_gate=w_gate, routed=routed, shared=shared)

    def weights(self) -> Iterator[np.ndarray]:
        """Every weight array of the weight set, each read-only."""
        yield self.weight_set.embedding
        for layer in self.weight_set.layers:
            yield from (layer.w_attn, layer.w_gate)
            for expert in (*layer.routed, *layer.shared):
                yield from (expert.w_gate, expert.w_up, expert.w_down)

    # ------------------------------------------------------------------
    # basic blocks
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return self.config.num_layers

    def new_state(self) -> DecodeState:
        """Fresh decode state with empty per-layer attention context."""
        return DecodeState(
            position=0,
            ctx_sum=[
                np.zeros(self.d_model, dtype=np.float32)
                for _ in range(self.config.num_layers)
            ],
        )

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        """Embed token ids (any of which are taken modulo the vocab)."""
        ids = np.asarray(tokens, dtype=np.int64) % self.vocab_size
        if ids.ndim != 1:
            raise ConfigError(f"tokens must be a 1-D id array, got shape {ids.shape}")
        return self._embedding[ids]

    def prepare_inputs(self, tokens: np.ndarray, state: DecodeState) -> np.ndarray:
        """Embed tokens and apply the input-coherence blend.

        Consecutive inputs are exponentially blended on the unit sphere:
        ``x_t = normalise((1 - c) * emb_t + c * x_{t-1})``. The chain
        continues across prefill/decode through ``state.input_ema``.
        ``state.position`` is *not* advanced here — the caller advances
        it once after all layers of the step have run (see
        :meth:`forward`).
        """
        emb = self.embed(tokens)
        c = self.input_coherence
        if c == 0.0:
            if emb.shape[0] > 0:
                state.input_ema = emb[-1].copy()
            return emb
        blended = np.empty_like(emb)
        # The recurrence is serial in `prev`; its embedding term is not.
        # Rows are blended and normalised in place with `rms_norm`'s
        # floats: `np.mean`'s reduce and float64 quotient, cast back.
        fresh = (1.0 - c) * emb
        square = np.empty_like(emb[0])
        real = emb.dtype.type
        eps = real(_EPS)
        width = np.intp(emb.shape[1])
        prev = state.input_ema
        for t in range(emb.shape[0]):
            row = blended[t]
            if prev is None:
                row[...] = emb[t]
            else:
                np.multiply(c, prev, out=row)
                np.add(fresh[t], row, out=row)
            np.multiply(row, row, out=square)
            scale = np.sqrt(real(np.add.reduce(square) / width) + eps)
            np.divide(row, scale, out=row)
            prev = row
        if prev is not None:
            state.input_ema = prev.copy()
        return blended

    @staticmethod
    def rms_norm(x: np.ndarray) -> np.ndarray:
        """Root-mean-square normalisation along the last axis."""
        scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + _EPS)
        return x / scale

    def attention(self, x: np.ndarray, layer: int, state: DecodeState) -> np.ndarray:
        """Causal mean-context attention stub with residual connection.

        Each token attends to the running mean of all normalised inputs
        up to and including itself (continuing across prefill/decode via
        ``state``). The stub is linear-time, deterministic, and induces
        exactly the slow hidden-state drift the paper's prefetcher and
        MRS cache exploit.
        """
        normed = self.rms_norm(x)
        prior_count = state.position
        prior_sum = state.ctx_sum[layer]
        cumulative = np.cumsum(normed, axis=0) + prior_sum
        counts = prior_count + np.arange(1, x.shape[0] + 1, dtype=np.float32)
        ctx = cumulative / counts[:, None]
        state.ctx_sum[layer] = cumulative[-1].copy()
        attn_out = ctx @ self._layers[layer].w_attn
        return x + self.residual_scale * attn_out

    def moe_input(self, h: np.ndarray) -> np.ndarray:
        """Pre-MoE normalisation (the ``z`` all expert kernels consume)."""
        return self.rms_norm(h)

    def gate_scores(self, z: np.ndarray, layer: int) -> np.ndarray:
        """Softmax router scores of ``layer`` for normalised input ``z``.

        Calling this with the *current* layer's ``z`` but a *future*
        layer index is exactly the paper's gate-reuse prediction
        (§IV-C, Fig. 6).
        """
        if not 0 <= layer < self.config.num_layers:
            raise ConfigError(f"layer {layer} out of range [0, {self.config.num_layers})")
        logits = (z @ self._layers[layer].w_gate) / self.gate_temperature
        return softmax(logits, axis=-1)

    def route(self, z: np.ndarray, layer: int) -> RouterOutput:
        """Route normalised tokens ``z`` through ``layer``'s top-K gate."""
        scores = self.gate_scores(z, layer)
        return route_tokens(scores, self.config.num_activated_experts)

    # ------------------------------------------------------------------
    # expert execution
    # ------------------------------------------------------------------
    def expert_forward(
        self, z_rows: np.ndarray, layer: int, expert_id: int
    ) -> np.ndarray:
        """Run selected token rows through one routed expert.

        This is the unit of work the scheduler assigns to CPU or GPU;
        numerics are device-independent by construction.
        """
        weights = self._layers[layer].routed[expert_id]
        return expert_forward(z_rows, weights)

    def shared_forward(self, z: np.ndarray, layer: int) -> np.ndarray:
        """Sum of all shared experts applied to every token (may be zero)."""
        out = np.zeros_like(z)
        for weights in self._layers[layer].shared:
            out += expert_forward(z, weights)
        return out

    def moe_forward(self, z: np.ndarray, layer: int, router: RouterOutput) -> np.ndarray:
        """Reference routed-expert combination (ascending expert id).

        The scheduled engines recombine per-expert outputs in the same
        ascending-id order, so their results match this reference to
        floating-point accumulation noise.
        """
        out = np.zeros_like(z)
        for expert_id in router.activated_experts():
            rows = router.tokens_for_expert(expert_id)
            weights = router.weights_for_expert(expert_id)
            expert_out = self.expert_forward(z[rows], layer, expert_id)
            np.add.at(out, rows, expert_out * weights[:, None].astype(z.dtype))
        return out

    def layer_forward(
        self, x: np.ndarray, layer: int, state: DecodeState
    ) -> tuple[np.ndarray, RouterOutput]:
        """Full reference layer: attention, gate, shared + routed experts."""
        h = self.attention(x, layer, state)
        z = self.moe_input(h)
        router = self.route(z, layer)
        moe_out = self.shared_forward(z, layer) + self.moe_forward(z, layer, router)
        return h + self.residual_scale * moe_out, router

    # ------------------------------------------------------------------
    # whole-model convenience
    # ------------------------------------------------------------------
    def forward(
        self, tokens: np.ndarray, state: DecodeState | None = None
    ) -> tuple[np.ndarray, list[RouterOutput], DecodeState]:
        """Run tokens through every layer; return hidden states + routing.

        Returns
        -------
        tuple
            ``(hidden, routers, state)`` where ``routers[l]`` is the
            routing decision of layer ``l`` for this batch.
        """
        if state is None:
            state = self.new_state()
        x = self.prepare_inputs(tokens, state)
        routers: list[RouterOutput] = []
        for layer in range(self.config.num_layers):
            x, router = self.layer_forward(x, layer, state)
            routers.append(router)
        state.position += int(np.asarray(tokens).shape[0])
        return x, routers, state

    def lm_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Project final hidden states back onto the vocabulary."""
        return self.rms_norm(hidden) @ self._embedding.T

    def greedy_next_token(self, hidden_last: np.ndarray) -> int:
        """Greedy next-token choice from the last position's hidden state."""
        logits = self.lm_logits(hidden_last[None, :])
        return int(np.argmax(logits[0]))

    def sample_next_token(
        self,
        hidden_last: np.ndarray,
        rng: np.random.Generator,
        temperature: float = 1.0,
    ) -> int:
        """Temperature sampling of the next token.

        Greedy decoding drives this functional model to a fixed point
        (it is a contraction), which would make decode routing
        unrealistically repetitive; sampled decoding keeps the
        hidden-state trajectory — and therefore expert routing —
        evolving the way natural text does.

        Logits are standardised before the temperature is applied; the
        raw logit scale grows with the compute width, which would
        otherwise make any fixed temperature effectively greedy.
        """
        if temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        logits = self.lm_logits(hidden_last[None, :])[0].astype(np.float64)
        spread = float(logits.std())
        if spread > 0:
            logits = (logits - logits.mean()) / spread
        logits = logits / temperature
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        return int(rng.choice(self.vocab_size, p=probs))


class SequenceStateStore:
    """Per-sequence :class:`DecodeState` registry keyed by request id.

    Multi-request serving interleaves many independent sequences through
    one model; each needs its own attention context, coherence chain and
    position. The store owns that mapping and enforces the lifecycle:
    a sequence id is created once, consulted while its request decodes,
    and popped when the request finishes.
    """

    def __init__(self, model: "ReferenceMoEModel") -> None:
        self._model = model
        self._states: dict[object, DecodeState] = {}

    def __contains__(self, seq_id: object) -> bool:
        return seq_id in self._states

    def __len__(self) -> int:
        return len(self._states)

    def ids(self) -> list[object]:
        """Live sequence ids, in creation order."""
        return list(self._states)

    def create(self, seq_id: object) -> DecodeState:
        """Register a fresh decode state for ``seq_id``."""
        if seq_id in self._states:
            raise ConfigError(f"sequence {seq_id!r} already has a decode state")
        state = self._model.new_state()
        self._states[seq_id] = state
        return state

    def get(self, seq_id: object) -> DecodeState:
        """The live decode state of ``seq_id``."""
        try:
            return self._states[seq_id]
        except KeyError:
            raise ConfigError(f"no decode state for sequence {seq_id!r}") from None

    def pop(self, seq_id: object) -> DecodeState:
        """Remove and return the decode state of a finished sequence."""
        try:
            return self._states.pop(seq_id)
        except KeyError:
            raise ConfigError(f"no decode state for sequence {seq_id!r}") from None


def _as_float32(weights: ExpertWeights) -> ExpertWeights:
    """Cast an expert's weights to float32 to bound model memory."""
    return ExpertWeights(
        w_gate=weights.w_gate.astype(np.float32),
        w_up=weights.w_up.astype(np.float32),
        w_down=weights.w_down.astype(np.float32),
    )
