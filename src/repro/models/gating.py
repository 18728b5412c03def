"""Softmax top-K routing for MoE layers.

Implements the gating function of eq. (1) in the paper:

.. math::

    y = \\sum_i \\mathrm{Softmax}(\\mathrm{TopK}(x W_g))_i \\, E_i(x)

Scores are computed with a full softmax over expert logits; the top-K
experts per token are selected and their weights renormalised so each
token's expert weights sum to one (the Mixtral convention).

A :class:`RouterOutput` also carries the views derived from a decision
— its mean scores and its grouped-by-expert dispatch — each computed on
first use and kept, since the cache policy, the refill heuristic and
the step pipeline all read them for the same layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "softmax",
    "top_k_indices",
    "ExpertDispatch",
    "RouterOutput",
    "route_tokens",
]

#: Row count from which selection beats the full sort in
#: :func:`top_k_indices`. Measured at k=6 of 64 experts: the sort takes
#: 7 / 13 / 35 us at 8 / 16 / 32 rows, selection 11 / 12 / 16 us.
_SELECT_MIN_ROWS = 16


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries per row, sorted by score desc.

    Parameters
    ----------
    scores:
        Array of shape ``(n_tokens, n_experts)``.
    k:
        Number of experts to select per token.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(n_tokens, k)``. Ties are broken by
        expert index (lower index wins) so results are deterministic.

    Notes
    -----
    The result is defined as ``np.argsort(-scores, axis=1,
    kind="stable")[:, :k]``. A wide batch of finite float scores gets
    there by selection — ``k`` rounds of first-occurrence ``argmax`` on
    a scratch copy, each winner masked to ``-inf`` before the next
    round — which reads the matrix ``k`` times where the sort orders
    every column to keep ``k`` of them. ``argmax`` returns the lowest
    index among equal maxima, which is the stable sort's tie rule. A
    few rows (decode steps), scores that cannot hold the mask (integer
    dtypes) and non-finite scores (``NaN`` sorts last but wins
    ``argmax``; a selected ``-inf`` is indistinguishable from the mask)
    take the sort itself.
    """
    if scores.ndim != 2:
        raise ConfigError(f"scores must be 2-D (tokens, experts), got {scores.ndim}-D")
    n_rows, n_experts = scores.shape
    if not 0 < k <= n_experts:
        raise ConfigError(f"k must be in [1, {n_experts}], got {k}")
    if (
        n_rows < _SELECT_MIN_ROWS
        or scores.dtype.kind != "f"
        or not np.isfinite(scores).all()
    ):
        return np.argsort(-scores, axis=1, kind="stable")[:, :k]
    scratch = scores.copy()
    flat = scratch.reshape(-1)
    row_starts = np.arange(0, n_rows * n_experts, n_experts)
    selected = np.empty((n_rows, k), dtype=np.intp)
    for j in range(k):
        winners = scratch.argmax(axis=1)
        selected[:, j] = winners
        flat[winners + row_starts] = -np.inf
    return selected


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer keys in ``[0, bound)``.

    Keys that fit 16 bits are narrowed first: numpy's stable sort is a
    radix sort at that width (15 us for 3 072 keys, 117 us as int64).
    """
    if bound <= np.iinfo(np.int16).max:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")


@dataclass(frozen=True)
class ExpertDispatch:
    """One routing decision's (token, expert) pairs, grouped by expert.

    The ``n_tokens * k`` pairs are laid out in *grouped order*:
    ascending expert id, and ascending token row within one expert —
    the order ``np.nonzero(topk_idx == e)`` lists an expert's rows in.

    Attributes
    ----------
    tokens:
        Token row of each grouped position, shape ``(n_tokens * k,)``.
    weights:
        Routing weight of each grouped position, same shape.
    offsets:
        Expert ``e`` owns positions ``offsets[e]:offsets[e + 1]``
        (``loads[e]`` of them), shape ``(n_experts + 1,)``.
    slots:
        Shape ``(k, n_tokens)``: ``slots[j, t]`` is the grouped
        position of token ``t``'s pair with its ``j``-th smallest
        expert id, so summing row after row visits every token's
        contributions in ascending expert id.
    """

    tokens: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True)
class RouterOutput:
    """Routing decision for one MoE layer over a batch of tokens.

    Attributes
    ----------
    scores:
        Full softmax scores, shape ``(n_tokens, n_experts)``.
    topk_idx:
        Selected expert indices per token, shape ``(n_tokens, k)``.
    topk_weights:
        Renormalised weights per selected expert, shape ``(n_tokens, k)``;
        rows sum to one.
    loads:
        Number of tokens routed to each expert, shape ``(n_experts,)``.
    """

    scores: np.ndarray
    topk_idx: np.ndarray
    topk_weights: np.ndarray
    loads: np.ndarray

    @property
    def n_tokens(self) -> int:
        return int(self.scores.shape[0])

    @property
    def n_experts(self) -> int:
        return int(self.scores.shape[1])

    @property
    def k(self) -> int:
        return int(self.topk_idx.shape[1])

    def activated_experts(self) -> list[int]:
        """Expert ids with at least one routed token, ascending."""
        return [int(e) for e in np.flatnonzero(self.loads > 0)]

    def mean_scores(self) -> np.ndarray:
        """Per-expert scores averaged over tokens (used by the MRS cache).

        Computed once per routing decision; the array is shared between
        callers and read-only.
        """
        return self._mean_scores

    @cached_property
    def _mean_scores(self) -> np.ndarray:
        mean = self.scores.mean(axis=0)
        mean.setflags(write=False)
        return mean

    @cached_property
    def dispatch(self) -> ExpertDispatch:
        """The grouped-by-expert view of this decision, built once.

        One stable argsort of the flattened ``topk_idx`` yields the
        grouped order (flat index ``t * k + s`` ascends with the token
        row, and top-k experts are distinct per row); a second one, of
        the grouped token rows, lists each token's ``k`` positions in
        ascending expert id.
        """
        n_tokens, k = self.topk_idx.shape
        order = _stable_argsort(self.topk_idx.reshape(-1), self.n_experts)
        tokens = order // k
        offsets = np.concatenate(([0], np.cumsum(self.loads)))
        slots = _stable_argsort(tokens, n_tokens).reshape(n_tokens, k).T
        return ExpertDispatch(
            tokens=tokens,
            weights=self.topk_weights.reshape(-1)[order],
            offsets=offsets,
            slots=np.ascontiguousarray(slots),
        )

    def tokens_for_expert(self, expert_id: int) -> np.ndarray:
        """Row indices of tokens routed to ``expert_id``."""
        rows, _ = np.nonzero(self.topk_idx == expert_id)
        return rows

    def weights_for_expert(self, expert_id: int) -> np.ndarray:
        """Routing weights of the tokens routed to ``expert_id``."""
        rows, cols = np.nonzero(self.topk_idx == expert_id)
        return self.topk_weights[rows, cols]


def route_tokens(scores: np.ndarray, k: int) -> RouterOutput:
    """Select the top-``k`` experts per token and renormalise weights.

    Parameters
    ----------
    scores:
        Softmax scores of shape ``(n_tokens, n_experts)``; rows should
        sum to one (a full softmax output).
    k:
        Number of experts activated per token.
    """
    topk_idx = top_k_indices(scores, k)
    rows = np.arange(scores.shape[0])[:, None]
    selected = scores[rows, topk_idx]
    total = selected.sum(axis=1, keepdims=True)
    # Guard against a degenerate all-zero row (cannot happen with softmax
    # input, but keeps the function total for arbitrary score matrices).
    total = np.where(total <= 0.0, 1.0, total)
    topk_weights = selected / total
    loads = np.bincount(topk_idx.ravel(), minlength=scores.shape[1])
    return RouterOutput(
        scores=scores,
        topk_idx=topk_idx,
        topk_weights=topk_weights,
        loads=loads,
    )
