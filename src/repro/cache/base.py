"""Eviction-policy interface and factory.

A policy is a pure ranking component: the
:class:`~repro.cache.manager.ExpertCache` owns capacity, pinning,
locking and statistics; its policy learns residency from ``on_insert``
/ ``forget``, ranks the residents it knows, and answers one question —
which of them goes, given the keys it must skip.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Collection, KeysView

import numpy as np

from repro.errors import CacheError

__all__ = ["ExpertKey", "EvictionPolicy", "available_policies", "make_policy"]

#: Cache key: ``(layer_index, expert_index)``.
ExpertKey = tuple[int, int]


class EvictionPolicy(ABC):
    """Ranking strategy consulted by :class:`~repro.cache.manager.ExpertCache`.

    The base class keeps what every policy shares: the residents and
    their last-use times, in use order (a use re-inserts its key, and
    the cache hands every callback a fresh logical time, so dict order
    is ``(last_used, key)`` order).
    """

    #: Short identifier used in configs and reports (e.g. ``"lru"``).
    name: str = "abstract"

    def __init__(self) -> None:
        self._last_used: dict[ExpertKey, int] = {}

    @property
    def residents(self) -> KeysView[ExpertKey]:
        """The keys this policy ranks, least recently used first."""
        return self._last_used.keys()

    def on_insert(self, key: ExpertKey, now: int) -> None:
        """A key entered the cache at logical time ``now``."""
        self._last_used.pop(key, None)
        self._last_used[key] = now

    def on_access(self, key: ExpertKey, now: int) -> None:
        """A cached key was used at logical time ``now`` (a hit)."""
        if key not in self._last_used:
            raise CacheError(f"{self.name} access to unknown key {key}")
        del self._last_used[key]
        self._last_used[key] = now

    def on_scores(self, layer: int, scores: np.ndarray, now: int) -> None:
        """Routing scores for one layer were observed.

        Score-agnostic policies ignore this; MRS accumulates priorities
        from it. ``scores`` has one entry per routed expert of ``layer``.
        """

    @abstractmethod
    def victim(self, locked: Collection[ExpertKey]) -> ExpertKey:
        """The resident to evict, skipping ``locked`` keys.

        Raises :class:`~repro.errors.CacheError` when every resident is
        locked (or there is none).
        """

    @abstractmethod
    def priority(self, key: ExpertKey) -> float:
        """Retention priority of a key (higher = keep longer).

        Used by admission control: an insertion is rejected when the
        would-be victim has higher priority than the incoming key.
        """

    def forget(self, key: ExpertKey) -> None:
        """A key left the cache; drop bookkeeping that only applies to members."""
        self._last_used.pop(key, None)


def _policy_registry() -> dict:
    # Imported here to avoid circular imports at package load.
    from repro.cache.lfu import LFUPolicy
    from repro.cache.lru import LRUPolicy
    from repro.cache.mrs import MRSPolicy

    return {"lru": LRUPolicy, "lfu": LFUPolicy, "mrs": MRSPolicy}


def available_policies() -> list[str]:
    """Short names accepted by :func:`make_policy`, sorted."""
    return sorted(_policy_registry())


def make_policy(name: str, **kwargs) -> EvictionPolicy:
    """Instantiate a policy by short name (``"lru"``, ``"lfu"``, ``"mrs"``).

    Keyword arguments are forwarded to the policy constructor (e.g.
    ``alpha`` and ``top_p`` for MRS).
    """
    policies = _policy_registry()
    try:
        cls = policies[name]
    except KeyError:
        known = ", ".join(sorted(policies))
        raise CacheError(f"unknown cache policy {name!r} (known: {known})") from None
    return cls(**kwargs)
