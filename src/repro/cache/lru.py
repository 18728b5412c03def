"""Least-Recently-Used eviction policy."""

from __future__ import annotations

from collections.abc import Collection

from repro.cache.base import EvictionPolicy, ExpertKey
from repro.errors import CacheError

__all__ = ["LRUPolicy"]


class LRUPolicy(EvictionPolicy):
    """Evict the key with the oldest last use: the first in use order."""

    name = "lru"

    def victim(self, locked: Collection[ExpertKey]) -> ExpertKey:
        for key in self._last_used:
            if key not in locked:
                return key
        raise CacheError("LRU victim requested with no unlocked resident")

    def priority(self, key: ExpertKey) -> float:
        return float(self._last_used.get(key, -1))
