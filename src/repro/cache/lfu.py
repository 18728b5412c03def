"""Least-Frequently-Used eviction policy."""

from __future__ import annotations

from collections.abc import Collection

from repro.cache.base import EvictionPolicy, ExpertKey
from repro.errors import CacheError

__all__ = ["LFUPolicy"]


class LFUPolicy(EvictionPolicy):
    """Evict the key with the fewest recorded uses.

    Frequency counts persist across evictions (a key re-entering the
    cache keeps its history), matching the LFU variant used by
    kTransformers-style frequency pinning. Ties go to the least
    recently used: ``min`` keeps the first of equals in use order.
    """

    name = "lfu"

    def __init__(self) -> None:
        super().__init__()
        self._counts: dict[ExpertKey, int] = {}

    def on_insert(self, key: ExpertKey, now: int) -> None:
        super().on_insert(key, now)
        self._counts.setdefault(key, 0)

    def on_access(self, key: ExpertKey, now: int) -> None:
        super().on_access(key, now)
        self._counts[key] += 1

    def victim(self, locked: Collection[ExpertKey]) -> ExpertKey:
        unlocked = [key for key in self._last_used if key not in locked]
        if not unlocked:
            raise CacheError("LFU victim requested with no unlocked resident")
        return min(unlocked, key=self._counts.__getitem__)

    def priority(self, key: ExpertKey) -> float:
        return float(self._counts.get(key, 0))
