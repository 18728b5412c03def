"""Expert cache: capacity, pinning, locking and statistics.

:class:`ExpertCache` owns the expert membership of one memory tier —
historically the GPU tier only; a
:class:`~repro.cache.tiered.TieredCacheManager` runs a second instance
as the capacity-limited host-DRAM tier. It enforces:

- **capacity** — at most ``capacity`` unpinned routed experts resident;
- **pinning** — pinned keys (e.g. kTransformers' frequency-pinned set)
  are never evicted and do not consume the dynamic capacity budget;
- **locking** — keys needed by an in-flight layer plan cannot be chosen
  as eviction victims (evicting a weight mid-use would be a use-after-
  free on the real system).

It also keeps the hit/miss counters behind the paper's Fig. 9.

Two derived structures keep the queries cheap;
:meth:`ExpertCache.validate` checks both against the state they are
derived from, and the policy's view of the residents against the
cache's:

- a **per-layer residency index** so ``cached_experts_of_layer`` reads
  one bucket instead of scanning every resident key;
- a **victim memo** keyed on a monotone mutation counter: within one
  unchanged cache state, ``would_admit`` -> ``insert_if_better`` ->
  ``insert`` ask the policy for the same victim up to three times — the
  memo collapses those to a single policy consultation (any mutation
  bumps the version and invalidates it).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.cache.base import EvictionPolicy, ExpertKey
from repro.errors import CacheError

__all__ = ["CacheStats", "ExpertCache"]


@dataclass
class CacheStats:
    """Hit/miss and eviction counters."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_inserts: int = 0
    per_layer_hits: dict[int, int] = field(default_factory=dict)
    per_layer_misses: dict[int, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all recorded accesses (0 if none)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def record(self, layer: int, hit: bool) -> None:
        if hit:
            self.hits += 1
            self.per_layer_hits[layer] = self.per_layer_hits.get(layer, 0) + 1
        else:
            self.misses += 1
            self.per_layer_misses[layer] = self.per_layer_misses.get(layer, 0) + 1


class ExpertCache:
    """Bounded set of one tier's resident routed experts, pluggable eviction.

    Parameters
    ----------
    capacity:
        Maximum number of *unpinned* experts resident at once. Zero is
        legal (a pure CPU-compute / on-demand configuration).
    policy:
        The eviction policy consulted when the cache is full.
    pinned:
        Keys that are permanently resident (outside the capacity
        budget). kTransformers-style strategies pin by frequency;
        HybriMoE leaves this empty and manages everything dynamically.
    """

    def __init__(
        self,
        capacity: int,
        policy: EvictionPolicy,
        pinned: Iterable[ExpertKey] = (),
    ) -> None:
        if capacity < 0:
            raise CacheError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._pinned: set[ExpertKey] = set(pinned)
        self._resident: set[ExpertKey] = set()
        self._locked: set[ExpertKey] = set()
        self._clock = 0
        self.stats = CacheStats()
        # Monotone mutation counter: bumped by every operation that can
        # change a victim choice (membership, locking, policy state).
        self._version = 0
        self._victim_memo: tuple[int, ExpertKey] | None = None
        # Per-layer residency index (pinned keys included), kept in
        # lock-step with _resident/_pinned.
        self._by_layer: dict[int, set[int]] = {}
        for layer, expert in self._pinned:
            self._by_layer.setdefault(layer, set()).add(expert)
        #: ``(key, resident)`` hook after each dynamic insert or eviction (tiered tiers only).
        self.on_residency: Callable[[ExpertKey, bool], None] | None = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, key: ExpertKey) -> bool:
        return key in self._resident or key in self._pinned

    def __len__(self) -> int:
        """Number of resident experts, pinned included."""
        return len(self._resident) + len(self._pinned)

    @property
    def resident_keys(self) -> set[ExpertKey]:
        """All resident keys (dynamic + pinned), as a fresh set."""
        return set(self._resident) | set(self._pinned)

    @property
    def dynamic_keys(self) -> set[ExpertKey]:
        """Only the dynamically managed (evictable) resident keys."""
        return set(self._resident)

    @property
    def pinned_keys(self) -> set[ExpertKey]:
        return set(self._pinned)

    def cached_experts_of_layer(self, layer: int) -> frozenset[int]:
        """Expert ids of ``layer`` currently resident (a snapshot)."""
        bucket = self._by_layer.get(layer)
        return frozenset(bucket) if bucket else frozenset()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def access(self, key: ExpertKey) -> bool:
        """Record a lookup; returns True on hit.

        Misses do **not** auto-insert: whether a miss leads to a load is
        a *scheduling* decision (the CPU may compute the expert in
        place), so insertion is explicit.
        """
        self._clock += 1
        hit = key in self
        if hit and key in self._resident:
            self._version += 1
            self.policy.on_access(key, self._clock)
        self.stats.record(key[0], hit)
        return hit

    def _victim(self) -> ExpertKey | None:
        """The policy's eviction choice; ``None`` with nothing evictable.

        Memoized per cache version: between mutations the residents,
        the locks and every policy ranking are frozen, so the policy
        would return the same key — ``would_admit`` followed by
        ``insert_if_better`` and the ``insert`` it delegates to ask up
        to three times per admission. Only an actual choice is stored,
        and every change to what it depends on moves the version.
        """
        memo = self._victim_memo
        if memo is not None and memo[0] == self._version:
            return memo[1]
        if self._resident <= self._locked:
            return None
        victim = self.policy.victim(self._locked)
        self._victim_memo = (self._version, victim)
        return victim

    def insert(self, key: ExpertKey) -> list[ExpertKey]:
        """Make ``key`` resident; returns the list of evicted keys.

        Inserting an already-resident or pinned key is a no-op. When the
        cache is full, victims are chosen by the policy among unpinned,
        unlocked residents; if every resident is locked, the insert is
        rejected (recorded in stats) rather than corrupting an in-flight
        plan.
        """
        if key in self:
            return []
        evicted: list[ExpertKey] = []
        if self.capacity == 0:
            self.stats.rejected_inserts += 1
            return []
        while len(self._resident) >= self.capacity:
            victim = self._victim()
            if victim is None:
                self.stats.rejected_inserts += 1
                return evicted
            if victim not in self._resident:
                raise CacheError(f"policy chose non-resident victim {victim}")
            self._evict(victim)
            evicted.append(victim)
        self._add(key)
        self.stats.insertions += 1
        return evicted

    def _add(self, key: ExpertKey) -> None:
        self._clock += 1
        self._version += 1
        self._resident.add(key)
        self._by_layer.setdefault(key[0], set()).add(key[1])
        self.policy.on_insert(key, self._clock)
        if self.on_residency is not None:
            self.on_residency(key, True)

    def _evict(self, key: ExpertKey) -> None:
        if key in self._pinned:
            raise CacheError(f"attempted to evict pinned key {key}")
        if key in self._locked:
            raise CacheError(f"attempted to evict locked key {key}")
        self._version += 1
        self._resident.discard(key)
        bucket = self._by_layer.get(key[0])
        if bucket is not None:
            bucket.discard(key[1])
        self.policy.forget(key)
        self.stats.evictions += 1
        if self.on_residency is not None:
            self.on_residency(key, False)

    def would_admit(self, key: ExpertKey, margin: float = 0.0) -> bool:
        """Whether :meth:`insert_if_better` would currently admit ``key``.

        Lets callers check admission *before* paying for a transfer.
        ``margin`` demands the incoming key outrank the victim by a
        relative factor — speculative insertions (prefetches) use a
        positive margin so prediction noise cannot churn residents
        whose priority is only marginally lower.
        """
        if key in self:
            return False
        if self.capacity == 0:
            return False
        if len(self._resident) < self.capacity:
            return True
        victim = self._victim()
        if victim is None:
            return False
        return self.policy.priority(key) > self.policy.priority(victim) * (1.0 + margin)

    def insert_if_better(self, key: ExpertKey) -> list[ExpertKey]:
        """Insert only when the incoming key outranks the would-be victim.

        Admission control for transient loads: during prefill, every
        missed expert is transferred on demand, but blindly caching each
        one would thrash residency for later layers. The key is admitted
        when the cache has free slots, or when its policy priority
        strictly exceeds the chosen victim's.
        """
        if key in self:
            return []
        if not self.would_admit(key):
            self.stats.rejected_inserts += 1
            return []
        return self.insert(key)

    def evict_explicit(self, key: ExpertKey) -> None:
        """Force-remove a dynamic resident key (used by tests/tools)."""
        if key not in self._resident:
            raise CacheError(f"cannot evict non-resident key {key}")
        self._evict(key)

    def warm_fill(self, keys: Iterable[ExpertKey]) -> None:
        """Pre-populate the cache up to capacity (initial residency)."""
        for key in keys:
            if len(self._resident) >= self.capacity:
                break
            if key not in self:
                self._add(key)

    # ------------------------------------------------------------------
    # locking & scores
    # ------------------------------------------------------------------
    def lock(self, keys: Iterable[ExpertKey]) -> None:
        """Protect keys from eviction while a plan that uses them runs."""
        self._version += 1
        self._locked.update(keys)

    def unlock_all(self) -> None:
        if self._locked:
            self._version += 1
            self._locked.clear()

    @property
    def locked_keys(self) -> set[ExpertKey]:
        return set(self._locked)

    def observe_scores(self, layer: int, scores: np.ndarray) -> None:
        """Feed one layer's routing scores to the policy (MRS signal)."""
        self._clock += 1
        self._version += 1
        self.policy.on_scores(layer, scores, self._clock)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check capacity/pinning/index/policy-view/memo invariants; raises on violation."""
        if len(self._resident) > self.capacity:
            raise CacheError(
                f"capacity exceeded: {len(self._resident)} resident, "
                f"capacity {self.capacity}"
            )
        overlap = self._resident & self._pinned
        if overlap:
            raise CacheError(f"keys both pinned and dynamic: {sorted(overlap)}")
        indexed = {
            (layer, expert)
            for layer, bucket in self._by_layer.items()
            for expert in bucket
        }
        members = self._resident | self._pinned
        if indexed != members:
            raise CacheError(
                f"per-layer index out of sync: {sorted(indexed ^ members)}"
            )
        known = self.policy.residents
        if known != self._resident:
            raise CacheError(
                f"policy's residents out of sync: {sorted(known ^ self._resident)}"
            )
        memo = self._victim_memo
        if memo is not None and memo[0] == self._version:
            if self._resident <= self._locked:
                raise CacheError(f"victim memo {memo[1]} with nothing evictable")
            fresh = self.policy.victim(self._locked)
            if memo[1] != fresh:
                raise CacheError(
                    f"victim memo {memo[1]} != policy's choice {fresh}"
                )
