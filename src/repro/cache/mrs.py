"""Minus Recent Score (MRS) — the paper's score-aware policy (§IV-D).

Each routed expert keeps an estimated priority ``S`` updated whenever
its layer's routing scores are observed:

.. math::

    S \\leftarrow \\alpha \\cdot \\mathrm{TopP}(s) + (1 - \\alpha) \\cdot S

``TopP`` keeps only the top-``p`` scores of the layer (the paper sets
``p`` to twice the number of activated experts) and zeroes the rest —
low scores carry no reuse signal (Fig. 3b), so they only decay the
priority. Eviction removes the expert with the *minimum* S, hence the
name "Minus Recent Score".

Priorities live in one ``[layer, expert]`` matrix grown on demand (a
never-scored expert reads 0.0), residency in a boolean mask and last
use in a stamp matrix of the same shape: the eq. (3) update is one
vectorized expression over a row (or, priming from a warmup trace, over
a step's whole block), the victim a masked ``min`` of the scores and
a masked ``argmin`` of the tied stamps. The arithmetic is the IEEE-754
double operations of the per-key form in
``tests/cache/reference_policies.py``, so priorities and eviction order
are bit-identical to it (test-enforced).
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from repro.cache.base import EvictionPolicy, ExpertKey
from repro.errors import CacheError

__all__ = ["MRSPolicy"]


class MRSPolicy(EvictionPolicy):
    """Score-aware eviction driven by routing-score accumulation.

    Parameters
    ----------
    alpha:
        Averaging coefficient of eq. (3); higher values weigh the most
        recent iteration's scores more.
    top_p:
        Number of top scores per layer that accumulate. The paper uses
        ``2 * num_activated_experts``.
    """

    name = "mrs"

    def __init__(self, alpha: float = 0.7, top_p: int = 4) -> None:
        if not 0.0 < alpha <= 1.0:
            raise CacheError(f"alpha must be in (0, 1], got {alpha}")
        if top_p < 1:
            raise CacheError(f"top_p must be >= 1, got {top_p}")
        super().__init__()
        self.alpha = alpha
        self.top_p = top_p
        #: Priority of every expert scored or inserted so far, and which
        #: of them are resident; both ``[layer, expert]``.
        self._scores = np.zeros((0, 0), dtype=np.float64)
        self._resident = np.zeros((0, 0), dtype=bool)
        self._stamp = np.zeros((0, 0), dtype=np.int64)  # last use of residents

    def _cover(self, layers: int, experts: int) -> None:
        """Grow the matrices to at least ``layers`` x ``experts``."""
        rows, cols = self._scores.shape
        if layers <= rows and experts <= cols:
            return
        shape = (max(layers, rows), max(experts, cols))
        grown = []
        for old in (self._scores, self._resident, self._stamp):
            new = np.zeros(shape, dtype=old.dtype)
            new[:rows, :cols] = old
            grown.append(new)
        self._scores, self._resident, self._stamp = grown

    def on_insert(self, key: ExpertKey, now: int) -> None:
        super().on_insert(key, now)
        self._cover(key[0] + 1, key[1] + 1)
        self._resident[key] = True
        self._stamp[key] = now

    def on_access(self, key: ExpertKey, now: int) -> None:
        super().on_access(key, now)
        self._stamp[key] = now

    def on_scores(self, layer: int, scores: np.ndarray, now: int) -> None:
        """Apply eq. (3) to every expert of ``layer``.

        Experts inside the layer's top-``p`` accumulate
        ``alpha * score``; all others decay by ``(1 - alpha)``. Priorities
        are tracked for *all* experts of the layer — including uncached
        ones — because a high-scoring uncached expert must outrank stale
        cached entries the moment it is loaded.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise CacheError(f"scores must be 1-D, got shape {scores.shape}")
        self._cover(layer + 1, scores.size)
        top_idx = np.argsort(-scores, kind="stable")[: min(self.top_p, scores.size)]
        contribution = np.zeros(scores.size, dtype=np.float64)
        contribution[top_idx] = scores[top_idx]
        row = self._scores[layer, : scores.size]
        row[:] = self.alpha * contribution + (1.0 - self.alpha) * row

    def on_step_scores(self, block: np.ndarray) -> None:
        """:meth:`on_scores` of every row ``l`` of a ``(layers, experts)``
        block as layer ``l``'s, bit-equal: the rows update independently."""
        block = np.asarray(block, dtype=np.float64)
        self._cover(*block.shape)
        top = np.argsort(-block, axis=1, kind="stable")[:, : self.top_p]
        contribution = np.zeros_like(block)
        np.put_along_axis(contribution, top, np.take_along_axis(block, top, 1), 1)
        scores = self._scores[: block.shape[0], : block.shape[1]]
        scores[:] = self.alpha * contribution + (1.0 - self.alpha) * scores

    def victim(self, locked: Collection[ExpertKey]) -> ExpertKey:
        """The unlocked resident of minimum score.

        Exact-score ties (fresh keys all read 0.0) go to the least
        recently used, then the lowest ``(layer, expert)``.
        """
        ranked = np.where(self._resident, self._scores, np.inf)
        for key in locked:
            if key in self._last_used:
                ranked[key] = np.inf
        lowest = ranked.min(initial=np.inf)
        if lowest == np.inf:
            raise CacheError("MRS victim requested with no unlocked resident")
        # argmin takes the first minimum, so equal stamps go to the lowest key.
        stamps = np.where(ranked == lowest, self._stamp, np.iinfo(np.int64).max)
        return divmod(int(stamps.argmin()), stamps.shape[1])

    def priority(self, key: ExpertKey) -> float:
        layer, expert = key
        rows, cols = self._scores.shape
        if 0 <= layer < rows and 0 <= expert < cols:
            return float(self._scores[layer, expert])
        return 0.0

    def forget(self, key: ExpertKey) -> None:
        # Scores persist across evictions: reuse probability is a
        # property of the expert, not of its cache residency.
        if key in self._last_used:
            self._resident[key] = False
        super().forget(key)
