"""Sharded expert cache: per-device :class:`ExpertCache` shards.

:class:`ShardedCacheManager` routes the cache operations the engine,
pipeline and strategies use (membership, access / insert / admission /
lock, per-layer lookups, stats, score observation) over ``N``
independent :class:`~repro.cache.manager.ExpertCache`
shards, one per GPU. Every key's home shard is :func:`home_device`,
``expert % N``; each shard keeps its own eviction policy instance and
its own capacity budget, so per-device residency decisions are exactly
the single-GPU decisions made over that device's slice of the expert
population.

Construction goes through :class:`CacheSpec` — a declarative recipe
(aggregate capacity, a policy factory, pinned and warm-fill key orders)
that every :class:`~repro.engine.strategy_base.Strategy` provides. The
engine materialises it as ``N`` shards with the aggregate capacity
split evenly and the pinned/warm lists routed to their home shards.

This is the only GPU-cache wiring: the paper's single-GPU platform is
the manager over **one** shard. There every key's home is device 0, so
a one-shard manager never evaluates the home rule and forwards
each operation to the shard verbatim — the engine's behaviour on one
GPU is that of a bare :class:`~repro.cache.manager.ExpertCache`
(pinned by the ``GOLDEN_1GPU`` digests in ``tests/engine``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.cache.base import EvictionPolicy, ExpertKey
from repro.cache.manager import CacheStats, ExpertCache
from repro.errors import CacheError

__all__ = ["CacheSpec", "ShardedCacheManager", "home_device", "split_capacity"]


def home_device(expert: int, num_devices: int) -> int:
    """Home device of every ``(layer, expert)`` key: ``expert % num_devices``.

    The one placement rule of the sharded cache: the home shard caches
    the expert, its PCIe link transfers it and its GPU computes it.
    Striping by expert id spreads each layer's experts over every
    device.
    """
    return expert % num_devices


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

    def build_sharded(self, num_devices: int) -> "ShardedCacheManager":
        """Materialise one shard per device behind a manager.

        Capacity is split evenly (the aggregate budget is fixed, so the
        GPU-memory assumption of ``cache_ratio`` is preserved across
        ``num_gpus``); pinned and warm lists are routed to each key's
        home shard in spec order.
        """
        capacities = split_capacity(self.capacity, num_devices)
        pinned_per: list[list[ExpertKey]] = [[] for _ in range(num_devices)]
        for key in self.pinned:
            pinned_per[home_device(key[1], num_devices)].append(key)
        shards = [
            ExpertCache(capacities[g], self.policy_factory(), pinned=pinned_per[g])
            for g in range(num_devices)
        ]
        manager = ShardedCacheManager(shards)
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

    With one shard every operation forwards verbatim and the home rule
    is never evaluated (the home of every key is device 0), so a
    1-device manager is operation-for-operation identical to its shard.
    """

    def __init__(self, shards: list[ExpertCache]) -> None:
        if not shards:
            raise CacheError("ShardedCacheManager needs at least one shard")
        self.shards = shards
        #: The one shard of a single-device manager (None on a fleet):
        #: routing short-circuits to it without evaluating the home rule.
        self._solo = shards[0] if len(shards) == 1 else None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.shards)

    def device_of(self, key: ExpertKey) -> int:
        """Home device of ``key`` (:func:`home_device`)."""
        if self._solo is not None:
            return 0
        return home_device(key[1], len(self.shards))

    def shard_of(self, key: ExpertKey) -> ExpertCache:
        """The shard that owns ``key``."""
        return self.shards[self.device_of(key)]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, key: ExpertKey) -> bool:
        shard = self._solo
        if shard is None:
            shard = self.shards[home_device(key[1], len(self.shards))]
        return key in shard

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
        """Admission probe against the key's home shard."""
        shard = self._solo
        if shard is None:
            shard = self.shards[home_device(key[1], len(self.shards))]
        return shard.would_admit(key, margin=margin)

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
        every resident key must sit on its home shard — a violated
        routing invariant would make residency invisible to lookups.
        """
        for device, shard in enumerate(self.shards):
            shard.validate()
            for key in shard.resident_keys:
                home = self.device_of(key)
                if home != device:
                    raise CacheError(
                        f"key {key} resident on device {device} but its home "
                        f"is device {home}"
                    )
