"""Sharded expert cache: per-device :class:`ExpertCache` shards.

:class:`ShardedCacheManager` routes the cache operations the engine,
pipeline and strategies use (membership, access / insert / admission /
lock, per-layer lookups, stats, score observation) over ``N``
independent :class:`~repro.cache.manager.ExpertCache`
shards, one per GPU. A :class:`~repro.cache.placement.PlacementPolicy`
routes every key to its home shard; each shard keeps its own eviction
policy instance and its own capacity budget, so per-device residency
decisions are exactly the single-GPU decisions made over that device's
slice of the expert population.

Construction goes through :class:`CacheSpec` — a declarative recipe
(aggregate capacity, a policy factory, pinned and warm-fill key orders)
that every :class:`~repro.engine.strategy_base.Strategy` provides. The
engine materialises it as ``N`` shards with the aggregate capacity
split evenly and the pinned/warm lists filtered by placement.

This is the only GPU-cache wiring: the paper's single-GPU platform is
the manager over **one** shard. There every key's home is device 0, so
a one-shard manager never consults its placement policy and forwards
each operation to the shard verbatim — the engine's behaviour on one
GPU is that of a bare :class:`~repro.cache.manager.ExpertCache`
(pinned by the ``GOLDEN_1GPU`` digests in ``tests/engine``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.cache.base import EvictionPolicy, ExpertKey
from repro.cache.manager import CacheStats, ExpertCache
from repro.cache.placement import PlacementPolicy
from repro.errors import CacheError

__all__ = ["CacheSpec", "ShardedCacheManager", "split_capacity"]


def split_capacity(total: int, num_devices: int) -> list[int]:
    """Even split of an aggregate slot budget across devices.

    The first ``total % num_devices`` devices get one extra slot, so
    the split sums exactly to ``total`` and is deterministic.
    """
    if total < 0:
        raise CacheError(f"capacity must be non-negative, got {total}")
    if num_devices < 1:
        raise CacheError(f"num_devices must be >= 1, got {num_devices}")
    base, extra = divmod(total, num_devices)
    return [base + (1 if g < extra else 0) for g in range(num_devices)]


class CacheSpec:
    """Declarative cache recipe a strategy hands to the engine.

    Parameters
    ----------
    capacity:
        Aggregate dynamic-slot budget (summed across shards when the
        cache is sharded).
    policy_factory:
        Zero-argument callable building one *fresh* eviction policy.
        Called once per shard — policies are stateful, so shards must
        not share an instance. Strategies that prime their policy (the
        MRS warmup priming) do so inside the factory, giving every
        shard identically primed priorities.
    pinned:
        Permanently resident keys in priority order (outside the
        capacity budget), e.g. kTransformers' frequency-pinned set.
    warm:
        Warm-fill order for initial residency (truncated per shard to
        that shard's capacity).
    """

    def __init__(
        self,
        capacity: int,
        policy_factory: Callable[[], EvictionPolicy],
        pinned: Iterable[ExpertKey] = (),
        warm: Iterable[ExpertKey] = (),
    ) -> None:
        if capacity < 0:
            raise CacheError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self.policy_factory = policy_factory
        self.pinned = tuple(pinned)
        self.warm = tuple(warm)

    def build_sharded(self, placement: PlacementPolicy) -> "ShardedCacheManager":
        """Materialise one shard per device behind a manager.

        Capacity is split evenly (the aggregate budget is fixed, so the
        GPU-memory assumption of ``cache_ratio`` is preserved across
        ``num_gpus``); pinned and warm lists are routed to each key's
        home shard in spec order, which keeps load-aware assignment
        deterministic.
        """
        num_devices = placement.num_devices
        capacities = split_capacity(self.capacity, num_devices)
        pinned_per: list[list[ExpertKey]] = [[] for _ in range(num_devices)]
        occupancy = [0] * num_devices
        for key in self.pinned:
            device = placement.assign(key, occupancy)
            pinned_per[device].append(key)
            occupancy[device] += 1
        shards = [
            ExpertCache(capacities[g], self.policy_factory(), pinned=pinned_per[g])
            for g in range(num_devices)
        ]
        manager = ShardedCacheManager(shards, placement)
        manager.warm_fill(self.warm)
        return manager


class ShardedCacheManager:
    """Single-cache facade over per-device expert-cache shards.

    Routes the :class:`~repro.cache.manager.ExpertCache` operations the
    engine, pipeline and strategies consume to each key's home shard,
    and adds the device queries the multi-GPU pipeline needs
    (:meth:`device_of`, :attr:`shards`, :meth:`per_device_stats`).
    What it does not forward (pinned or locked keys, ``evict_explicit``)
    is read off ``shards[g]``.

    With one shard every operation forwards verbatim and the placement
    policy is never consulted (the home of every key is device 0), so a
    1-device manager is operation-for-operation identical to its shard.
    """

    def __init__(
        self, shards: list[ExpertCache], placement: PlacementPolicy
    ) -> None:
        if not shards:
            raise CacheError("ShardedCacheManager needs at least one shard")
        if placement.num_devices != len(shards):
            raise CacheError(
                f"placement covers {placement.num_devices} devices but "
                f"{len(shards)} shards were given"
            )
        self.shards = shards
        self.placement = placement
        #: The one shard of a single-device manager (None on a fleet):
        #: routing short-circuits to it without asking the placement.
        self._solo = shards[0] if len(shards) == 1 else None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.shards)

    def _occupancy(self) -> list[int]:
        return [len(shard) for shard in self.shards]

    def device_of(self, key: ExpertKey) -> int:
        """Home device of ``key`` (assigning it if load-aware and new)."""
        if self._solo is not None:
            return 0
        occupancy = self._occupancy() if self.placement.uses_occupancy else ()
        return self._checked(self.placement.assign(key, occupancy), key)

    def _checked(self, device: int, key: ExpertKey) -> int:
        if not 0 <= device < len(self.shards):
            raise CacheError(
                f"placement {self.placement.name!r} routed {key} to device "
                f"{device} (have {len(self.shards)})"
            )
        return device

    def peek_device_of(self, key: ExpertKey) -> int | None:
        """Home device of ``key`` without committing a new assignment.

        ``None`` (load-aware, key never routed) implies the key is
        resident nowhere — pure queries must not perturb placement.
        """
        if self._solo is not None:
            return 0
        device = self.placement.peek(key)
        return device if device is None else self._checked(device, key)

    def shard_of(self, key: ExpertKey) -> ExpertCache:
        """The shard that owns ``key``."""
        return self.shards[self.device_of(key)]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, key: ExpertKey) -> bool:
        device = self.peek_device_of(key)
        if device is None:
            return False
        return key in self.shards[device]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def capacity(self) -> int:
        """Aggregate dynamic capacity across shards."""
        return sum(shard.capacity for shard in self.shards)

    @property
    def resident_keys(self) -> set[ExpertKey]:
        keys: set[ExpertKey] = set()
        for shard in self.shards:
            keys |= shard.resident_keys
        return keys

    def cached_experts_of_layer(self, layer: int) -> frozenset[int]:
        """Union of the layer's resident experts across all shards."""
        if self._solo is not None:
            return self._solo.cached_experts_of_layer(layer)
        return frozenset().union(
            *[shard.cached_experts_of_layer(layer) for shard in self.shards]
        )

    def device_experts_of_layer(self, layer: int, device: int) -> frozenset[int]:
        """Resident experts of ``layer`` on one device's shard."""
        return self.shards[device].cached_experts_of_layer(layer)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def access(self, key: ExpertKey) -> bool:
        # The per-expert call of every layer: routed inline.
        shard = self._solo
        if shard is None:
            shard = self.shards[self.device_of(key)]
        return shard.access(key)

    def insert(self, key: ExpertKey) -> list[ExpertKey]:
        return self.shard_of(key).insert(key)

    def insert_if_better(self, key: ExpertKey) -> list[ExpertKey]:
        return self.shard_of(key).insert_if_better(key)

    def would_admit(self, key: ExpertKey, margin: float = 0.0) -> bool:
        """Admission probe against the key's (would-be) home shard.

        A speculative query: routed through the placement *preview* so
        probing a load-aware manager for keys that are then rejected
        does not sticky-commit their placement.
        """
        if self._solo is not None:
            return self._solo.would_admit(key, margin=margin)
        occupancy = self._occupancy() if self.placement.uses_occupancy else ()
        device = self._checked(self.placement.preview(key, occupancy), key)
        return self.shards[device].would_admit(key, margin=margin)

    def warm_fill(self, keys: Iterable[ExpertKey]) -> None:
        if self._solo is not None:
            return self._solo.warm_fill(keys)
        for key in keys:
            self.shard_of(key).warm_fill([key])

    def lock(self, keys: Iterable[ExpertKey]) -> None:
        for key in keys:
            self.shard_of(key).lock([key])

    def unlock_all(self) -> None:
        for shard in self.shards:
            shard.unlock_all()

    def observe_scores(self, layer: int, scores: np.ndarray) -> None:
        """Broadcast routing scores to every shard's policy.

        Each shard keeps global priorities but only ever evicts among
        its own residents, so broadcasting is safe and keeps admission
        decisions consistent with the unsharded cache.
        """
        for shard in self.shards:
            shard.observe_scores(layer, scores)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Aggregate hit/miss/eviction counters across shards.

        Returns a fresh summed snapshot (on one shard: that shard's
        live counters); mutate per-shard stats via ``shards[g].stats``
        if needed.
        """
        if self._solo is not None:
            return self._solo.stats
        total = CacheStats()
        for shard in self.shards:
            s = shard.stats
            total.hits += s.hits
            total.misses += s.misses
            total.insertions += s.insertions
            total.evictions += s.evictions
            total.rejected_inserts += s.rejected_inserts
            for layer, count in s.per_layer_hits.items():
                total.per_layer_hits[layer] = total.per_layer_hits.get(layer, 0) + count
            for layer, count in s.per_layer_misses.items():
                total.per_layer_misses[layer] = (
                    total.per_layer_misses.get(layer, 0) + count
                )
        return total

    def per_device_stats(self) -> list[CacheStats]:
        """Per-shard counters, indexed by device id (live objects)."""
        return [shard.stats for shard in self.shards]

    def per_device_hit_rates(self) -> list[float]:
        """Hit rate of each device's shard (0 where never accessed)."""
        return [shard.stats.hit_rate for shard in self.shards]

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Validate every shard plus the routing invariant.

        Each shard checks its own capacity/pinning invariants; on top,
        every resident key must route back to the shard holding it —
        a violated routing invariant would make residency invisible to
        lookups.
        """
        for device, shard in enumerate(self.shards):
            shard.validate()
            for key in shard.resident_keys:
                home = self.peek_device_of(key)
                if home != device:
                    raise CacheError(
                        f"key {key} resident on device {device} but placement "
                        f"{self.placement.name!r} routes it to {home}"
                    )
