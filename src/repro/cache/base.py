"""Eviction-policy interface and factory.

A policy is a pure ranking component: the
:class:`~repro.cache.manager.ExpertCache` owns membership, capacity and
statistics, and asks its policy only two things — update internal
bookkeeping on events, and pick a victim among eviction candidates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable

import numpy as np

from repro.errors import CacheError

__all__ = ["ExpertKey", "EvictionPolicy", "available_policies", "make_policy"]

#: Cache key: ``(layer_index, expert_index)``.
ExpertKey = tuple[int, int]


class EvictionPolicy(ABC):
    """Ranking strategy consulted by :class:`~repro.cache.manager.ExpertCache`."""

    #: Short identifier used in configs and reports (e.g. ``"lru"``).
    name: str = "abstract"

    @abstractmethod
    def on_insert(self, key: ExpertKey, now: int) -> None:
        """A key entered the cache at logical time ``now``."""

    @abstractmethod
    def on_access(self, key: ExpertKey, now: int) -> None:
        """A cached key was used at logical time ``now`` (a hit)."""

    def on_scores(self, layer: int, scores: np.ndarray, now: int) -> None:
        """Routing scores for one layer were observed.

        Score-agnostic policies ignore this; MRS accumulates priorities
        from it. ``scores`` has one entry per routed expert of ``layer``.
        """

    @abstractmethod
    def victim(self, candidates: Iterable[ExpertKey]) -> ExpertKey:
        """Pick the key to evict among ``candidates`` (never empty)."""

    @abstractmethod
    def priority(self, key: ExpertKey) -> float:
        """Retention priority of a key (higher = keep longer).

        Used by admission control: an insertion is rejected when the
        would-be victim has higher priority than the incoming key.
        """

    @abstractmethod
    def forget(self, key: ExpertKey) -> None:
        """A key left the cache; drop bookkeeping that only applies to members."""

    def priority_snapshot(self) -> dict[ExpertKey, float]:
        """Optional introspection hook: current priority per known key."""
        return {}


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
