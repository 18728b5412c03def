"""Tiered expert memory: a capacity-limited DRAM tier over disk spill.

:class:`TieredCacheManager` generalises the two-tier memory model (a
GPU expert cache over an *infinite* CPU store) to the three-tier
hierarchy of memory-limited deployments:

- **GPU tier** — the engine's
  :class:`~repro.cache.sharded.ShardedCacheManager` (one shard per
  GPU, one shard on the paper's single-GPU platform), built from the
  strategy's :class:`~repro.cache.sharded.CacheSpec` exactly as on a
  two-tier platform;
- **CPU DRAM tier** — a second, capacity-limited :class:`ExpertCache`
  with its own eviction policy from the same strategy registry
  (LRU/LFU/MRS apply per tier). An expert resident here can be
  CPU-computed in place or transferred to a GPU at plain PCIe cost;
- **disk tier** — the implicit backing store holding *every* expert.
  An expert resident in neither cache is **spilled**: using it first
  pays a disk -> DRAM read on the platform's shared disk link, before
  any CPU compute or PCIe transfer.

The manager forwards to the **GPU tier** exactly what the engine,
pipeline and strategies call on ``runtime.cache`` — ``in``, ``stats``,
``access``, ``insert``, ``insert_if_better``, ``would_admit``, ``lock``,
``unlock_all``, ``cached_experts_of_layer``, and the device routing
(``shards``, ``device_of``, ``device_experts_of_layer``, per-device
stats) — so two-tier callers are unaffected; anything else is read off
``gpu_tier`` / ``cpu_tier`` directly. It adds the tier queries the
scheduler and prefetcher need: :meth:`is_spilled`,
:meth:`spilled_experts`, :meth:`promote_to_dram`,
:meth:`dram_would_admit`. GPU-tier statistics
stay authoritative for the paper's hit-rate figures; the DRAM tier
keeps its own counters, where an *access* is recorded only for GPU
misses — its hit rate is therefore the fraction of GPU misses served
from DRAM rather than disk.

The DRAM tier is **lazily exclusive**: when full it evicts its oldest
*shadow* (a copy of a GPU-resident expert) first, and a GPU eviction DRAM
lacks is queued on ``demotions`` for the engine to copy into DRAM. Every
copy into DRAM — a disk read or a demotion — takes its slot when it is
reserved (:meth:`TieredCacheManager.promote_to_dram`); the engine clock's
landing map gates its use.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial

import numpy as np

from repro.cache.base import ExpertKey
from repro.cache.manager import CacheStats, ExpertCache
from repro.cache.sharded import ShardedCacheManager
from repro.errors import CacheError

__all__ = ["TieredCacheManager"]


class TieredCacheManager:
    """GPU-tier facade composing a DRAM tier with implicit disk spill.

    Parameters
    ----------
    gpu_tier:
        The GPU expert cache the engine would have used on its own (a
        sharded manager; a bare :class:`ExpertCache` serves every
        operation but the device pass-through below). Every forwarded
        operation goes here verbatim, which is what keeps the
        unbounded-DRAM configuration bit-identical to the two-tier
        engine.
    cpu_tier:
        The capacity-limited DRAM cache. Its capacity counts *routed
        expert slots* of host memory; keys outside both tiers are
        spilled to disk.
    """

    def __init__(self, gpu_tier: ExpertCache | ShardedCacheManager,
                 cpu_tier: ExpertCache) -> None:
        if cpu_tier.pinned_keys:
            raise CacheError("the DRAM tier does not support pinned keys")
        self.gpu_tier = gpu_tier
        self.cpu_tier = cpu_tier
        #: DRAM copies of GPU-resident experts, oldest first (ordered set).
        self._shadows = dict.fromkeys(sorted(cpu_tier.resident_keys & gpu_tier.resident_keys))
        #: ``(key, device)`` GPU evictions for the engine to copy into DRAM.
        self.demotions: list[tuple[ExpertKey, int]] = []
        cpu_tier.on_residency = partial(self._residency_changed, gpu_tier, None)
        for device, shard in enumerate(getattr(gpu_tier, "shards", [gpu_tier])):
            shard.on_residency = partial(self._residency_changed, cpu_tier, device)

    # ------------------------------------------------------------------
    # tier queries
    # ------------------------------------------------------------------
    def is_spilled(self, key: ExpertKey) -> bool:
        """Whether using ``key`` requires a disk read first."""
        return key not in self.gpu_tier and key not in self.cpu_tier

    def spilled_experts(self, layer: int, experts: Iterable[int]) -> frozenset[int]:
        """The subset of ``experts`` of ``layer`` resident in no tier.

        Answered from the two tiers' per-layer residency indexes — one
        set difference each, not an :meth:`is_spilled` probe per key.
        """
        return (
            frozenset(experts)
            - self.gpu_tier.cached_experts_of_layer(layer)
            - self.cpu_tier.cached_experts_of_layer(layer)
        )

    def promote_to_dram(self, key: ExpertKey) -> list[ExpertKey]:
        """Make ``key`` DRAM-resident as its disk read or demotion is reserved.

        Returns the DRAM keys evicted to make room: the oldest shadow
        while any is left (its GPU copy stays), else the DRAM policy's
        victim, so experts only DRAM holds go to disk last.
        """
        cpu = self.cpu_tier
        evicted = []
        if self._shadows and key not in cpu and len(cpu) >= cpu.capacity:
            evicted.append(next(iter(self._shadows)))
            cpu.evict_explicit(evicted[0])
        return evicted + cpu.insert(key)

    def _residency_changed(self, other, device: int | None, key: ExpertKey, resident: bool) -> None:
        """Keep shadows exact; queue a demotion of what GPU ``device`` evicts alone."""
        if resident:
            if key in other:
                self._shadows[key] = None
        elif key in self._shadows:
            del self._shadows[key]
        elif device is not None and self.cpu_tier.capacity > 0:
            self.demotions.append((key, device))

    def dram_would_admit(self, key: ExpertKey) -> bool:
        """Whether a speculative DRAM promotion of ``key`` makes sense.

        Plain insertion semantics: any non-resident key is admitted as
        long as the tier has slots at all (evicting the policy's victim
        when full), the classic behaviour of an OS page cache.
        """
        return self.cpu_tier.capacity > 0 and key not in self.cpu_tier

    def tier_stats(self) -> dict[str, CacheStats]:
        """Counters per tier (``gpu`` aggregate and ``cpu``)."""
        return {"gpu": self.gpu_tier.stats, "cpu": self.cpu_tier.stats}

    def per_tier_hit_rates(self) -> dict[str, float]:
        """Hit rate per tier; the CPU rate is over GPU misses only."""
        return {
            "gpu": self.gpu_tier.stats.hit_rate,
            "cpu": self.cpu_tier.stats.hit_rate,
        }

    # ------------------------------------------------------------------
    # forwarded to the GPU tier
    # ------------------------------------------------------------------
    def __contains__(self, key: ExpertKey) -> bool:
        return key in self.gpu_tier

    @property
    def stats(self) -> CacheStats:
        return self.gpu_tier.stats

    def cached_experts_of_layer(self, layer: int) -> frozenset[int]:
        return self.gpu_tier.cached_experts_of_layer(layer)

    def access(self, key: ExpertKey) -> bool:
        """Record a lookup; a GPU miss additionally probes the DRAM tier.

        The DRAM access keeps that tier's policy recency/score state
        live and counts its hit/miss (DRAM hit = the miss is served
        from host memory; DRAM miss = it spills to disk).
        """
        hit = self.gpu_tier.access(key)
        if not hit:
            self.cpu_tier.access(key)
        return hit

    def insert(self, key: ExpertKey) -> list[ExpertKey]:
        return self.gpu_tier.insert(key)

    def insert_if_better(self, key: ExpertKey) -> list[ExpertKey]:
        return self.gpu_tier.insert_if_better(key)

    def would_admit(self, key: ExpertKey, margin: float = 0.0) -> bool:
        return self.gpu_tier.would_admit(key, margin=margin)

    def lock(self, keys: Iterable[ExpertKey]) -> None:
        self.gpu_tier.lock(keys)

    def unlock_all(self) -> None:
        self.gpu_tier.unlock_all()

    def observe_scores(self, layer: int, scores: np.ndarray) -> None:
        """Feed routing scores to *both* tiers' policies.

        A score-aware DRAM policy (MRS) needs the same signal the GPU
        tier gets; score-agnostic policies ignore it.
        """
        self.gpu_tier.observe_scores(layer, scores)
        self.cpu_tier.observe_scores(layer, scores)

    # ------------------------------------------------------------------
    # sharded-cache pass-through (multi-GPU pipeline)
    # ------------------------------------------------------------------
    @property
    def shards(self) -> list[ExpertCache]:
        return self.gpu_tier.shards

    def device_of(self, key: ExpertKey) -> int:
        return self.gpu_tier.device_of(key)

    def device_experts_of_layer(self, layer: int, device: int) -> frozenset[int]:
        return self.gpu_tier.device_experts_of_layer(layer, device)

    def per_device_stats(self) -> list[CacheStats]:
        return self.gpu_tier.per_device_stats()

    def per_device_hit_rates(self) -> list[float]:
        return self.gpu_tier.per_device_hit_rates()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Validate both tiers' capacity/pinning/placement invariants."""
        self.gpu_tier.validate()
        self.cpu_tier.validate()
        stale = self._shadows.keys() ^ (self.cpu_tier.resident_keys & self.gpu_tier.resident_keys)
        if stale:
            raise CacheError(f"shadow set out of sync: {sorted(stale)}")
