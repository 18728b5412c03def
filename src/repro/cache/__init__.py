"""Expert cache management: policies and the per-tier capacity managers.

Each tier of the memory hierarchy (GPU memory, and optionally host
DRAM) holds a bounded number of routed experts; this package decides
*which*. Keys are ``(layer, expert)`` pairs. Policies:

- :class:`~repro.cache.lru.LRUPolicy` — least recently used;
- :class:`~repro.cache.lfu.LFUPolicy` — least frequently used;
- :class:`~repro.cache.mrs.MRSPolicy` — the paper's Minus Recent Score
  policy (§IV-D, eq. 3): per-expert priorities accumulate top-p routing
  scores with exponential averaging, and the minimum-priority expert is
  evicted.

:class:`~repro.cache.manager.ExpertCache` enforces capacity, pinning and
locking invariants and keeps hit/miss statistics. A policy ranks the
residents it is told about (``on_insert`` / ``forget``) and answers one
question, ``victim(locked)``; its plain form lives in
``tests/cache/reference_policies.py``.

The engine's GPU cache is one :class:`~repro.cache.manager.ExpertCache`
shard per device behind
:class:`~repro.cache.sharded.ShardedCacheManager` (a single shard on
one GPU); :func:`~repro.cache.sharded.home_device` (``expert % N``)
routes every key to its home device when there are several. The
manager forwards what the
engine, pipeline and strategies call (membership, ``access``,
``insert`` / ``insert_if_better`` / ``would_admit``, ``lock`` /
``unlock_all``, per-layer lookups, ``observe_scores``, ``stats``); the
rest of a shard's surface is read off ``shards[g]``.

When host DRAM is itself capacity-limited,
:class:`~repro.cache.tiered.TieredCacheManager` composes the GPU cache
with a second, capacity-limited DRAM-tier
:class:`ExpertCache`; experts resident in neither tier are spilled to
disk and pay a disk read before any use. It forwards the same
operations to the GPU tier; ``gpu_tier`` / ``cpu_tier`` are public for
everything else.
"""

from repro.cache.base import (
    EvictionPolicy,
    ExpertKey,
    available_policies,
    make_policy,
)
from repro.cache.lfu import LFUPolicy
from repro.cache.lru import LRUPolicy
from repro.cache.manager import CacheStats, ExpertCache
from repro.cache.mrs import MRSPolicy
from repro.cache.sharded import CacheSpec, ShardedCacheManager, home_device, split_capacity
from repro.cache.tiered import TieredCacheManager

__all__ = [
    "ExpertKey",
    "EvictionPolicy",
    "available_policies",
    "make_policy",
    "LRUPolicy",
    "LFUPolicy",
    "MRSPolicy",
    "ExpertCache",
    "CacheStats",
    "CacheSpec",
    "ShardedCacheManager",
    "home_device",
    "split_capacity",
    "TieredCacheManager",
]
