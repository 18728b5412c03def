"""Hybrid CPU-GPU scheduling via schedule simulation (paper §IV-B).

The scheduling problem — which device computes each activated expert,
and which uncached experts are worth transferring to the GPU first — is
NP-hard in general. HybriMoE constrains it with three priority rules:

- **GPU priority**: the GPU computes cached experts, higher load first;
- **CPU priority**: the CPU computes uncached experts, lower load
  first, and may *steal* low-load cached experts when otherwise idle;
- **Transfer priority**: PCIe moves high-load uncached experts first,
  so expensive computations become GPU-eligible as early as possible.

With the orders fixed, the only remaining decision is the *allocation*:
how many (and therefore which) uncached experts go to the transfer
queue rather than the CPU queue (eq. 2). :class:`HybridScheduler`
resolves it exactly as the paper describes — an event-driven simulation
fills the three timelines for each candidate allocation, and the
allocation with the smallest simulated makespan wins.

Two search implementations produce **bit-identical plans**:

- the *reference* simulator (:meth:`HybridScheduler._simulate`) builds
  all three timelines from scratch for every candidate transfer count —
  the paper's description taken literally;
- the *fast path* (default, ``SchedulerConfig.fast_path``) resolves the
  priority orders, per-expert durations, the PCIe arrival prefix and the
  CPU queue's running sums once per search, evaluates a candidate with
  an O(n log n) record-free replica of the event loop (same float
  operations in the same order, so the argmin cannot drift), and prunes
  with two exact lower bounds — the transfer chain rises with ``k``,
  the CPU queue falls with it. The candidate where the two bounds
  cross is simulated first; its makespan only tightens the pruning
  threshold of the reference's ascending scan (see
  :func:`_scan_candidates` for why that cannot move the argmin). Only
  the winning allocation is materialised, through the reference
  simulator. The prefetcher's quick screens run through the same
  routine.

On a **tiered-memory platform** (capacity-limited host DRAM over disk
spill) the planner additionally receives the layer's *spilled* expert
set and the estimated per-expert disk -> DRAM read time. A spilled
expert pays that read before either use: its PCIe transfer chain grows
by one disk hop (disk -> CPU -> GPU) and its CPU-fallback compute is
delayed by the same fetch. Both search paths apply the surcharge with
identical float operations, so fast-vs-reference bit-identity is
preserved; with an empty spilled set (the default two-tier platform)
every duration is byte-for-byte the historical one.

On top of either path sits a bounded LRU **plan memo** keyed on the
planner's exact inputs (layer, activated loads, cached set, in-flight
offsets, backlogs, token count, shared flag, spilled set + disk cost). Keys are value-complete —
identical inputs always produce identical plans — so nothing is ever
invalidated; decode steps repeat near-identical routing, making hits
the common case. Memoization assumes the oracle factory is
deterministic per ``n_tokens`` (true of the engine's estimated cost
models; a stateful noisy oracle must disable it via
``plan_cache_size=0``).
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.core.tasks import (
    SHARED_BLOCK,
    ComputeTask,
    Device,
    ExecutionPlan,
    LayerCostOracle,
    TransferTask,
)
from repro.errors import SchedulingError

__all__ = ["SchedulerConfig", "HybridScheduler", "SimulatedTask", "SimulationResult"]

#: Strict-improvement tolerance of the allocation argmin (shared by the
#: reference loop, the fast path and its lower-bound pruning).
_TIE_EPS = 1e-15
_NEG_INF = float("-inf")


def _scan_candidates(counts, bounds, makespan) -> tuple[int, float]:
    """The reference's ascending argmin over ``counts``, simulating few.

    ``bounds[i]`` is a lower bound on ``makespan(i)``, the exact
    makespan of transfer count ``counts[i]``. The reference scans the
    counts in ascending order and replaces its incumbent only by a
    makespan better by more than ``_TIE_EPS`` (so ties keep the fewer
    transfers). This scan returns the same ``(count, makespan)`` and
    skips a candidate whose bound already cannot beat the incumbent —
    but the reference starts from the all-on-CPU incumbent, which
    nearly every count improves on. So the candidate with the smallest
    bound (where the rising transfer-chain bound crosses the falling
    CPU-queue bound) is simulated first; with ``P`` its makespan, every
    candidate whose bound lies above ``P + eps`` is skipped too.

    Why that cannot move the argmin: call a makespan *low* if it is
    ``<= P`` and *high* if ``m - eps > P``. Until the first low
    candidate every candidate is high (skipped by its bound, or
    simulated and found high), and the first low candidate replaces
    whatever high incumbent the reference holds (``m <= P < a - eps``).
    From there both scans hold the same low incumbent: a high candidate
    never replaces it, and every other candidate is simulated or
    skipped under the reference's own rule. A simulated makespan
    *between* the two (``P < m``, ``m - eps <= P``) voids the argument,
    and the scan restarts without the cap.
    """
    probe = bounds.index(min(bounds))
    cap = probe_mk = makespan(probe)
    while True:
        best_k = -1
        best_mk = float("inf")
        for i, bound in enumerate(bounds):
            if bound - _TIE_EPS > cap or (
                best_k >= 0 and bound >= best_mk - _TIE_EPS
            ):
                continue
            mk = probe_mk if i == probe else makespan(i)
            if mk > cap:
                if mk - _TIE_EPS > cap:
                    continue
                break
            if best_k < 0 or mk < best_mk - _TIE_EPS:
                best_mk = mk
                best_k = counts[i]
        else:
            return best_k, best_mk
        cap = float("inf")


@dataclass(frozen=True)
class SchedulerConfig:
    """Tunable behaviour of the hybrid scheduler.

    Attributes
    ----------
    search_transfers:
        When True (paper behaviour), simulate every transfer count
        ``k = 0..|uncached|`` and keep the best. When False, only the
        two extremes (no transfers / transfer everything) are evaluated
        — the cheap mode used inside prefetch impact estimation and as
        an ablation.
    allow_cpu_steal:
        Allow an idle CPU to take low-load *cached* experts from the
        GPU queue (the paper's CPU priority rule, second clause).
    steal_margin:
        Fractional safety margin on the steal-benefit test; a steal
        happens only if the CPU would finish the stolen expert before
        ``(1 - margin) *`` the GPU's estimated finish time.
    max_search_width:
        Upper bound on the number of simulated transfer counts (nested
        dyadic subsampling, always including both extremes; widening
        the width only ever *adds* candidates, so a wider search can
        never pick a worse makespan). ``None`` means exhaustive.
    fast_path:
        Use the incremental search (hoisted sorts, duration memo,
        lower-bound pruning, single materialisation). Plans are
        bit-identical to the reference simulator's — property-tested —
        so this is purely a latency knob; False forces the reference
        path for oracle comparisons and perf baselines.
    plan_cache_size:
        Entries of the bounded LRU memo over ``plan()`` /
        ``simulate_makespan()`` results. ``0`` disables memoization.
        Requires a deterministic oracle factory (see module docs).
    """

    search_transfers: bool = True
    allow_cpu_steal: bool = True
    steal_margin: float = 0.0
    max_search_width: int | None = None
    fast_path: bool = True
    plan_cache_size: int = 1024

    def __post_init__(self) -> None:
        if not 0.0 <= self.steal_margin < 1.0:
            raise SchedulingError(
                f"steal_margin must be in [0, 1), got {self.steal_margin}"
            )
        if self.max_search_width is not None and self.max_search_width < 2:
            raise SchedulingError(
                f"max_search_width must be >= 2, got {self.max_search_width}"
            )
        if self.plan_cache_size < 0:
            raise SchedulingError(
                f"plan_cache_size must be non-negative, got {self.plan_cache_size}"
            )


@dataclass(frozen=True)
class SimulatedTask:
    """One simulated operation with its timeline placement."""

    expert: int
    start: float
    finish: float
    resource: str


@dataclass
class SimulationResult:
    """Outcome of one schedule simulation (one transfer allocation)."""

    makespan: float
    transfers: list[int]
    gpu_order: list[SimulatedTask]
    cpu_order: list[SimulatedTask]
    stolen: list[int]
    loads: dict[int, int]


class _DurationTable:
    """Per-``n_tokens`` memo of oracle durations keyed by load.

    The oracle is deterministic per ``(n_tokens, load)``, so a cached
    duration is the *same float* an oracle call would return — lookups
    cannot change any simulated timeline bit.
    """

    __slots__ = ("oracle", "transfer", "shared_gpu", "_gpu", "_cpu", "_cpu_first")

    def __init__(self, oracle: LayerCostOracle) -> None:
        self.oracle = oracle
        self.transfer = oracle.transfer()
        self.shared_gpu = oracle.shared_compute(Device.GPU)
        self._gpu: dict[int, float] = {}
        self._cpu: dict[int, float] = {}
        self._cpu_first: dict[int, float] = {}

    def gpu(self, load: int) -> float:
        d = self._gpu.get(load)
        if d is None:
            d = self._gpu[load] = self.oracle.gpu_compute(load)
        return d

    def cpu(self, load: int, first_task: bool) -> float:
        table = self._cpu_first if first_task else self._cpu
        d = table.get(load)
        if d is None:
            d = table[load] = self.oracle.cpu_compute(load, first_task=first_task)
        return d


class HybridScheduler:
    """Schedule-simulation planner implementing eq. (2) of the paper.

    Parameters
    ----------
    oracle_factory:
        Callable ``(n_tokens) -> LayerCostOracle`` giving *estimated*
        durations (typically a warmup-fitted cost model). The planner
        never sees actual execution times. Must be deterministic per
        ``n_tokens`` when memoization or the fast path is enabled.
    config:
        Search and stealing behaviour.
    """

    #: Bound on the per-``n_tokens`` duration tables kept alive.
    _MAX_DURATION_TABLES = 64

    def __init__(self, oracle_factory, config: SchedulerConfig | None = None) -> None:
        self._oracle_factory = oracle_factory
        self.config = config or SchedulerConfig()
        self._tables: OrderedDict[int, _DurationTable] = OrderedDict()
        self._memo: OrderedDict[tuple, object] = OrderedDict()
        self._memo_hits = 0
        self._memo_misses = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def plan(
        self,
        layer: int,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        pcie_backlog: float = 0.0,
        include_shared: bool = True,
        inflight: dict[int, float] | None = None,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> ExecutionPlan:
        """Produce the minimal-makespan execution plan for one layer.

        Parameters
        ----------
        layer:
            MoE layer index (only labels the plan).
        activated:
            ``(expert_id, load)`` pairs for every activated routed
            expert of the layer.
        cached_experts:
            Expert ids of this layer resident (or in flight) on the GPU.
        n_tokens:
            Tokens in this step (drives shared-expert cost).
        pcie_backlog:
            Seconds until the PCIe link frees up relative to the MoE
            phase start (in-flight prefetch transfers queue ahead).
        include_shared:
            Prepend the fused shared-experts block to the GPU queue
            (the paper's timelines always run shared experts on GPU
            first, Fig. 5).
        inflight:
            Ready-time offsets (relative to the MoE phase start) of
            cached experts whose prefetch transfers are still in
            flight; the GPU cannot start them earlier.
        cpu_backlog:
            Seconds until the shared CPU frees up relative to the MoE
            phase start. Zero on a single-GPU platform (the layer
            barrier drains the CPU); on a multi-GPU platform earlier
            devices' CPU-fallback work queues ahead, and this offset is
            how each device's planner arbitrates its own CPU fallback
            against the fleet-shared CPU (the per-device min-latency
            rule).
        spilled:
            Expert ids of this layer resident in *no* memory tier
            (tiered platforms only): each pays ``disk_fetch_s`` before
            its PCIe transfer or CPU compute can start.
        disk_fetch_s:
            Estimated disk -> DRAM read time per spilled expert.
        """
        key = self._memo_key(
            "plan",
            layer,
            activated,
            cached_experts,
            n_tokens,
            pcie_backlog,
            include_shared,
            inflight,
            cpu_backlog,
            False,
            spilled,
            disk_fetch_s,
        )
        if key is not None:
            hit = self._memo_get(key)
            if hit is not None:
                return hit.clone()
        oracle = self._oracle_factory(n_tokens)
        best = self._best_simulation(
            activated,
            cached_experts,
            oracle,
            pcie_backlog,
            include_shared,
            inflight,
            cpu_backlog=cpu_backlog,
            spilled=spilled,
            disk_fetch_s=disk_fetch_s,
        )
        plan = self._materialise(layer, n_tokens, best, oracle, include_shared)
        if key is not None:
            self._memo_put(key, plan.clone())
        return plan

    def simulate_makespan(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        pcie_backlog: float = 0.0,
        include_shared: bool = True,
        quick: bool = False,
        inflight: dict[int, float] | None = None,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> float:
        """Estimated makespan of the best allocation (no plan object).

        ``quick=True`` forces the two-extremes search regardless of
        config — used heavily by the prefetcher's impact simulation.
        """
        key = self._memo_key(
            "mk",
            0,
            activated,
            cached_experts,
            n_tokens,
            pcie_backlog,
            include_shared,
            inflight,
            cpu_backlog,
            quick,
            spilled,
            disk_fetch_s,
        )
        if key is not None:
            hit = self._memo_get(key)
            if hit is not None:
                return hit
        if self.config.fast_path:
            loads, inflight_eff, spilled_eff = self._validated_inputs(
                activated, cached_experts, pcie_backlog, cpu_backlog, inflight,
                spilled, disk_fetch_s,
            )
            _, makespan = self._search_fast(
                self._gpu_priority(loads),
                loads,
                cached_experts,
                self._duration_table(n_tokens),
                pcie_backlog,
                include_shared,
                inflight_eff,
                cpu_backlog,
                force_quick=quick,
                spilled=spilled_eff,
                disk_fetch_s=disk_fetch_s,
            )
        else:
            best = self._best_simulation(
                activated,
                cached_experts,
                self._oracle_factory(n_tokens),
                pcie_backlog,
                include_shared,
                inflight,
                force_quick=quick,
                cpu_backlog=cpu_backlog,
                spilled=spilled,
                disk_fetch_s=disk_fetch_s,
            )
            makespan = best.makespan
        if key is not None:
            self._memo_put(key, makespan)
        return makespan

    def quick_makespan_lower_bound(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> float:
        """Cheap lower bound on the quick (two-extremes) makespan.

        Used by the impact-driven prefetcher to *screen* candidates:
        the bound is provably ``<=`` the value
        :meth:`simulate_makespan` with ``quick=True`` (and zero
        backlogs) would return, built from the same duration floats the
        simulation would use, so screening on it can never change an
        exact decision. Spilled experts carry their disk-fetch
        surcharge on both branches, mirroring the simulation exactly.
        """
        loads, _, spilled_eff = self._validated_inputs(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        return self._quick_bounds(
            self._gpu_priority(loads), loads, cached_experts,
            self._duration_table(n_tokens), [None], spilled_eff, disk_fetch_s,
        )[None]

    @staticmethod
    def _quick_bounds(
        order: list[int],
        loads: dict[int, int],
        cached_experts: set[int],
        table: _DurationTable,
        candidates: list,
        spilled: frozenset[int],
        disk_fetch_s: float,
    ) -> dict:
        """Quick-makespan lower bound with each candidate taken as cached.

        ``order`` is :meth:`_gpu_priority` of ``loads``. A candidate is
        filtered out of the uncached experts (``None`` filters
        nothing), which preserves order, so every bound adds the same
        floats in the same order as a from-scratch call on
        ``cached_experts | {candidate}`` (a candidate leaves the
        effective spilled set with it).
        """
        uncached_desc = [e for e in order if e not in cached_experts]
        cpu_jobs_all = sorted(uncached_desc, key=lambda e: (loads[e], e))
        gpu_t0 = table.shared_gpu if table.shared_gpu > 0.0 else 0.0
        transfer = table.transfer
        bounds = {}
        for candidate in candidates:
            remaining = [e for e in uncached_desc if e != candidate]
            if not remaining:
                bounds[candidate] = gpu_t0
                continue
            # k = |uncached|: every uncached expert rides the PCIe chain
            # and must be computed on the GPU after its arrival
            # (transferred experts are never stolen). Spilled experts
            # first hop over the disk link.
            t_pcie = 0.0
            chain = gpu_t0
            for expert in remaining:
                if expert in spilled:
                    t_pcie += disk_fetch_s
                t_pcie += transfer
                chain = max(chain, t_pcie) + table.gpu(loads[expert])
            # k = 0: every uncached expert runs on the CPU, back to
            # back, in ascending-load order (first task pays the warmup
            # penalty).
            t_cpu = 0.0
            first = True
            for expert in cpu_jobs_all:
                if expert == candidate:
                    continue
                duration = table.cpu(loads[expert], first)
                if expert in spilled:
                    duration += disk_fetch_s
                t_cpu += duration
                first = False
            bounds[candidate] = min(chain, max(gpu_t0, t_cpu))
        return bounds

    def _batch_key(
        self, kind, activated, cached_experts, n_tokens, experts, spilled, disk_fetch_s
    ) -> tuple | None:
        """Value-complete memo key of one batched quick call."""
        if self.config.plan_cache_size == 0:
            return None
        return (
            kind,
            n_tokens,
            tuple(sorted(activated)),
            frozenset(cached_experts),
            tuple(sorted(experts)),
            frozenset(spilled or ()),
            disk_fetch_s,
        )

    def quick_makespan_lower_bounds(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        candidates: list[int],
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> dict[int, float]:
        """Batched :meth:`quick_makespan_lower_bound` over candidates.

        Returns, per candidate ``e``, the exact float
        ``quick_makespan_lower_bound(activated, cached_experts | {e},
        n_tokens, ...)`` would produce. The prefetcher's screening pass
        asks one such bound per candidate of a predicted layer;
        batching hoists the shared work — input validation, the
        duration table, and the two load-ordered sorts — out of the
        per-candidate loop (:meth:`_quick_bounds`; test-enforced), and
        the whole batch memoizes as one ``"qb"`` entry (decode steps
        repeat near-identical predictions).
        """
        key = self._batch_key(
            "qb", activated, cached_experts, n_tokens, candidates, spilled, disk_fetch_s
        )
        if key is not None:
            hit = self._memo_get(key)
            if hit is not None:
                return hit
        loads, _, spilled_all = self._validated_inputs(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        bounds = self._quick_bounds(
            self._gpu_priority(loads), loads, cached_experts,
            self._duration_table(n_tokens), candidates, spilled_all, disk_fetch_s,
        )
        if key is not None:
            self._memo_put(key, bounds)
        return bounds

    def screen_prediction_batch(
        self,
        items: list[tuple],
        disk_fetch_s: float = 0.0,
    ) -> list[tuple[float, dict[int, float]]]:
        """:meth:`quick_screen` over a whole prediction window at once.

        ``items`` holds one ``(activated, cached_experts, n_tokens,
        candidates, spilled)`` tuple per predicted layer — the
        prefetcher's full multi-layer-ahead window, including any
        gate-extended deep-horizon layers. Each item's result is the
        exact :meth:`quick_screen` pair (every per-layer computation is
        independently memoized), so batching changes call structure,
        never floats — decisions are bit-identical to the per-layer
        loop (test-enforced).
        """
        return [
            self.quick_screen(
                activated,
                cached_experts,
                n_tokens,
                candidates,
                spilled=spilled,
                disk_fetch_s=disk_fetch_s,
            )
            for activated, cached_experts, n_tokens, candidates, spilled in items
        ]

    def quick_screen(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        candidates: list[int],
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> tuple[float, dict[int, float]]:
        """Base quick makespan plus screening bounds, one hoisted batch.

        Returns ``(base, bounds)`` where ``base`` is the exact float
        ``simulate_makespan(activated, cached_experts, n_tokens,
        quick=True, ...)`` would produce (zero backlogs, no inflight)
        and ``bounds`` is exactly
        :meth:`quick_makespan_lower_bounds` over ``candidates``. The
        prefetcher asks for both per predicted layer; computing them
        together pays the input validation, duration table and the
        priority sort once, and memoizes the pair as one ``"qs"``
        entry. ``base`` is one :meth:`_search_fast` call — the routine
        behind ``simulate_makespan`` — so values are bit-identical to
        the separate calls (test-enforced).
        """
        key = self._batch_key(
            "qs", activated, cached_experts, n_tokens, candidates, spilled, disk_fetch_s
        )
        if key is not None:
            hit = self._memo_get(key)
            if hit is not None:
                return hit
        loads, _, spilled_all = self._validated_inputs(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        table = self._duration_table(n_tokens)
        order = self._gpu_priority(loads)
        _, base = self._search_fast(
            order, loads, cached_experts, table, 0.0, True, {}, 0.0,
            force_quick=True, spilled=spilled_all, disk_fetch_s=disk_fetch_s,
        )
        bounds = self._quick_bounds(
            order, loads, cached_experts, table, candidates, spilled_all, disk_fetch_s
        )
        result = (base, bounds)
        if key is not None:
            self._memo_put(key, result)
        return result

    def quick_makespans_with(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        n_tokens: int,
        experts: list[int],
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> dict[int, float]:
        """Batched with-expert quick simulations for the prefetcher.

        Returns, per expert ``e`` of ``experts``, the exact float
        ``simulate_makespan(activated, cached_experts | {e}, n_tokens,
        quick=True, ...)`` would produce (zero backlogs, no inflight —
        the impact simulation's calling convention). One batch hoists
        what the per-call path repeats per expert — input validation,
        the duration table, the priority sort and the memo-key
        construction — and runs each expert through
        :meth:`_search_fast`, the routine behind ``simulate_makespan``,
        so the floats are the per-call path's (test-enforced). The
        whole batch memoizes as one ``"qw"`` entry.
        """
        key = self._batch_key(
            "qw", activated, cached_experts, n_tokens, experts, spilled, disk_fetch_s
        )
        if key is not None:
            hit = self._memo_get(key)
            if hit is not None:
                return hit
        loads, _, spilled_all = self._validated_inputs(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        table = self._duration_table(n_tokens)
        order = self._gpu_priority(loads)
        results: dict[int, float] = {}
        for expert in experts:
            _, results[expert] = self._search_fast(
                order, loads, cached_experts | {expert}, table, 0.0, True, {}, 0.0,
                force_quick=True,
                spilled=spilled_all - {expert},
                disk_fetch_s=disk_fetch_s,
            )
        if key is not None:
            self._memo_put(key, results)
        return results

    def invalidate_costs(self) -> None:
        """Drop every memoized plan, makespan and duration table.

        Required whenever the oracle factory's underlying cost model
        changes in place (hardware fault injection degrading a
        resource mid-run): memo entries and duration tables cache raw
        floats of the *old* costs, and serving a plan priced against an
        undegraded link would silently decouple planning from the
        platform. Hit/miss counters survive — they describe the run,
        not the costs.
        """
        self._tables.clear()
        self._memo.clear()

    def cache_info(self) -> dict[str, int]:
        """Plan-memo statistics (hits/misses/size/capacity)."""
        return {
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "size": len(self._memo),
            "capacity": self.config.plan_cache_size,
        }

    # ------------------------------------------------------------------
    # memoization
    # ------------------------------------------------------------------
    def _memo_key(
        self,
        kind: str,
        layer: int,
        activated,
        cached_experts,
        n_tokens: int,
        pcie_backlog: float,
        include_shared: bool,
        inflight,
        cpu_backlog: float,
        quick: bool,
        spilled=None,
        disk_fetch_s: float = 0.0,
    ) -> tuple | None:
        if self.config.plan_cache_size == 0:
            return None
        # Value-complete key: every input the simulation reads, with
        # floats kept exact (a "bucket" per representable value) so a
        # hit is guaranteed to reproduce the miss bit-for-bit.
        return (
            kind,
            layer,
            n_tokens,
            pcie_backlog,
            cpu_backlog,
            include_shared,
            quick,
            tuple(sorted(activated)),
            frozenset(cached_experts),
            tuple(sorted((inflight or {}).items())),
            frozenset(spilled or ()),
            disk_fetch_s,
        )

    def _memo_get(self, key: tuple):
        entry = self._memo.get(key)
        if entry is None:
            self._memo_misses += 1
            return None
        self._memo.move_to_end(key)
        self._memo_hits += 1
        return entry

    def _memo_put(self, key: tuple, value) -> None:
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > self.config.plan_cache_size:
            self._memo.popitem(last=False)

    def _duration_table(self, n_tokens: int) -> _DurationTable:
        table = self._tables.get(n_tokens)
        if table is None:
            table = self._tables[n_tokens] = _DurationTable(
                self._oracle_factory(n_tokens)
            )
        self._tables.move_to_end(n_tokens)
        while len(self._tables) > self._MAX_DURATION_TABLES:
            self._tables.popitem(last=False)
        return table

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _candidate_transfer_counts(self, n_uncached: int, force_quick: bool) -> list[int]:
        if n_uncached == 0:
            return [0]
        if force_quick or not self.config.search_transfers:
            return sorted({0, n_uncached})
        width = self.config.max_search_width
        if width is None or n_uncached + 1 <= width:
            return list(range(n_uncached + 1))
        # Nested dyadic subsampling: extremes first, then breadth-first
        # interval bisection. The first `width` values of this priority
        # order are a *superset-monotone* family — widening the width
        # only adds candidates, so a wider search never worsens the
        # chosen makespan (test-enforced).
        chosen = [0, n_uncached]
        intervals = deque([(0, n_uncached)])
        while len(chosen) < width and intervals:
            lo, hi = intervals.popleft()
            if hi - lo < 2:
                continue
            mid = (lo + hi) // 2
            chosen.append(mid)
            intervals.append((lo, mid))
            intervals.append((mid, hi))
        return sorted(chosen)

    @staticmethod
    def _gpu_priority(loads: dict[int, int]) -> list[int]:
        """Experts in GPU / transfer priority: high load first, then id."""
        return sorted(loads, key=lambda e: (-loads[e], e))

    @staticmethod
    def _validated_inputs(
        activated,
        cached_experts,
        pcie_backlog: float,
        cpu_backlog: float,
        inflight,
        spilled=None,
        disk_fetch_s: float = 0.0,
    ) -> tuple[dict[int, int], dict[int, float], frozenset[int]]:
        """Shared input validation of both search paths.

        The effective spilled set is intersected with the *uncached*
        activated experts: a GPU-cached expert never touches disk, and
        spill state of non-activated experts is irrelevant to this
        layer's plan.
        """
        if pcie_backlog < 0:
            raise SchedulingError(f"pcie_backlog must be non-negative, got {pcie_backlog}")
        if cpu_backlog < 0:
            raise SchedulingError(f"cpu_backlog must be non-negative, got {cpu_backlog}")
        if disk_fetch_s < 0:
            raise SchedulingError(
                f"disk_fetch_s must be non-negative, got {disk_fetch_s}"
            )
        loads = dict(activated)
        if len(loads) != len(activated):
            raise SchedulingError("duplicate expert ids in activated list")
        if any(load <= 0 for load in loads.values()):
            raise SchedulingError("activated experts must have positive load")
        inflight_eff = {
            e: max(0.0, ready)
            for e, ready in (inflight or {}).items()
            if e in loads and e in cached_experts
        }
        spilled_eff = frozenset(
            e for e in (spilled or ()) if e in loads and e not in cached_experts
        )
        return loads, inflight_eff, spilled_eff

    def _best_simulation(
        self,
        activated: list[tuple[int, int]],
        cached_experts: set[int],
        oracle: LayerCostOracle,
        pcie_backlog: float,
        include_shared: bool,
        inflight: dict[int, float] | None = None,
        force_quick: bool = False,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] | set[int] | None = None,
        disk_fetch_s: float = 0.0,
    ) -> SimulationResult:
        loads, inflight_eff, spilled_eff = self._validated_inputs(
            activated, cached_experts, pcie_backlog, cpu_backlog, inflight,
            spilled, disk_fetch_s,
        )
        if self.config.fast_path:
            best_k, _ = self._search_fast(
                self._gpu_priority(loads),
                loads,
                cached_experts,
                self._duration_table(oracle.n_tokens),
                pcie_backlog,
                include_shared,
                inflight_eff,
                cpu_backlog,
                force_quick=force_quick,
                spilled=spilled_eff,
                disk_fetch_s=disk_fetch_s,
            )
            # Materialise only the winner, through the reference
            # simulator — the plan object is reference output by
            # construction.
            return self._simulate(
                loads,
                cached_experts,
                oracle,
                best_k,
                pcie_backlog,
                include_shared,
                inflight_eff,
                cpu_backlog=cpu_backlog,
                spilled=spilled_eff,
                disk_fetch_s=disk_fetch_s,
            )

        uncached = [e for e, _ in activated if e not in cached_experts]
        best: SimulationResult | None = None
        for k in self._candidate_transfer_counts(len(uncached), force_quick):
            result = self._simulate(
                loads,
                cached_experts,
                oracle,
                k,
                pcie_backlog,
                include_shared,
                inflight_eff,
                cpu_backlog=cpu_backlog,
                spilled=spilled_eff,
                disk_fetch_s=disk_fetch_s,
            )
            better = best is None or result.makespan < best.makespan - _TIE_EPS
            tie_fewer_transfers = (
                best is not None
                and abs(result.makespan - best.makespan) <= _TIE_EPS
                and len(result.transfers) < len(best.transfers)
            )
            if better or tie_fewer_transfers:
                best = result
        assert best is not None  # at least k=0 is always simulated
        return best

    # ------------------------------------------------------------------
    # the incremental fast path
    # ------------------------------------------------------------------
    def _search_fast(
        self,
        order: list[int],
        loads: dict[int, int],
        cached_experts: set[int],
        table: _DurationTable,
        pcie_backlog: float,
        include_shared: bool,
        inflight: dict[int, float],
        cpu_backlog: float,
        force_quick: bool = False,
        spilled: frozenset[int] = frozenset(),
        disk_fetch_s: float = 0.0,
    ) -> tuple[int, float]:
        """Find the optimal transfer count without building plans.

        ``order`` is :meth:`_gpu_priority` of ``loads`` (callers that
        search many variants of one layer sort once). Returns
        ``(best_k, best_makespan)``, bit-identical to what the
        reference loop would select: every candidate evaluated goes
        through a float-exact replica of the reference event loop, and
        every candidate skipped provably cannot change the outcome of
        the reference's ascending scan.

        Two exact lower bounds drive the pruning, both built from the
        floats the simulation itself adds: the *transfer chain* (every
        transferred expert is computed on the GPU after its arrival;
        rises with ``k``) and the *CPU queue* (the CPU runs its own
        jobs back to back from the backlog, steals only extend it;
        falls with ``k``). :func:`_scan_candidates` decides from them
        which candidates need an exact simulation.
        """
        # Slots number the experts in ascending GPU priority: the GPU's
        # next task is the pool's last element, an arrival joins by
        # insort on a plain int, and (time, -slot) is the reference's
        # arrival order.
        experts = order[::-1]
        load_of = [loads[e] for e in experts]
        gpu = table.gpu
        gpu_dur = [gpu(load) for load in load_of]
        stealable = [e in cached_experts for e in experts]
        if inflight:
            pool = [
                s for s, e in enumerate(experts) if stealable[s] and e not in inflight
            ]
            inflight_arrivals = [
                (inflight[e], -s) for s, e in enumerate(experts) if e in inflight
            ]
        else:
            pool = [s for s, cached in enumerate(stealable) if cached]
        # Transfer lane (high load first): moving k -> k+1 appends one
        # arrival, so the PCIe timelines of all candidates are one
        # shared accumulation (the reference's `t_pcie += transfer`
        # sequence; a spilled expert's chain grows by its disk hop),
        # and so is the chain bound.
        lane = [s for s in range(len(experts) - 1, -1, -1) if not stealable[s]]
        n = len(lane)
        gpu_t0 = table.shared_gpu if include_shared and table.shared_gpu > 0.0 else 0.0
        transfer = table.transfer
        arrive: list[float] = []
        chain = [gpu_t0]
        t_pcie = pcie_backlog
        t_chain = gpu_t0
        for s in lane:
            if spilled and experts[s] in spilled:
                t_pcie += disk_fetch_s
            t_pcie += transfer
            arrive.append(t_pcie)
            t_chain = max(t_chain, t_pcie) + gpu_dur[s]
            chain.append(t_chain)

        counts = self._candidate_transfer_counts(n, force_quick)
        # CPU lane: until its own queue drains the CPU never interacts
        # with the GPU, so a candidate needs only (start of the last
        # own job, drain time), accumulated exactly as the event loop
        # would. Own durations depend on the load alone unless an
        # expert is spilled, and candidate k queues the n - k lowest
        # loads in ascending order — every candidate's sums are
        # prefixes of one accumulation.
        cpu = table.cpu
        if spilled:
            rank = {s: j for j, s in enumerate(lane)}
            queue = sorted(lane, key=lambda s: (load_of[s], -s))
            own = []
            for k in counts:
                start, t_cpu, first = _NEG_INF, cpu_backlog, True
                for s in queue:
                    if rank[s] >= k:
                        duration = cpu(load_of[s], first)
                        if experts[s] in spilled:
                            duration += disk_fetch_s
                        start = t_cpu
                        t_cpu += duration
                        first = False
                own.append((start, t_cpu))
        else:
            drained = [_NEG_INF, cpu_backlog]
            t_cpu, first = cpu_backlog, True
            for s in reversed(lane):
                t_cpu += cpu(load_of[s], first)
                first = False
                drained.append(t_cpu)
            own = [(drained[n - k], drained[n - k + 1]) for k in counts]
        bounds = [
            max(chain[k], drain) if k < n else chain[k]
            for k, (_, drain) in zip(counts, own)
        ]

        def makespan(i: int) -> float:
            k = counts[i]
            if inflight:
                merged = sorted(
                    inflight_arrivals + [(arrive[j], -lane[j]) for j in range(k)]
                )
                times = [ready for ready, _ in merged]
                slots = [-negated for _, negated in merged]
            else:
                times, slots = arrive[:k], lane[:k]
            start, drain = own[i]
            return self._fast_makespan(
                table, load_of, gpu_dur, stealable, pool[:], times, slots,
                gpu_t0, start, drain, k < n,
            )

        return _scan_candidates(counts, bounds, makespan)

    def _fast_makespan(
        self,
        table: _DurationTable,
        load_of: list[int],
        gpu_dur: list[float],
        stealable: list[bool],
        pool: list[int],
        arrival_times: list[float],
        arrival_slots: list[int],
        t_gpu: float,
        own_start: float,
        t_cpu: float,
        cpu_any: bool,
    ) -> float:
        """Record-free replica of :meth:`_simulate`'s event loop.

        Works on the slots of :meth:`_search_fast`: ``pool`` (consumed)
        holds the GPU-eligible slots ascending, arrivals come sorted by
        ``(time, -slot)``, and the CPU enters with its own queue
        already folded into ``t_cpu`` (``own_start`` is when its last
        own job started, ``-inf`` without one). Performs the same float
        operations in the same order as the reference, so the returned
        makespan is bit-identical; per event it costs a pop or a
        bisect instead of a scan of the pool, and the steal scan runs
        only when the CPU is actually idle with something to take.
        """
        n_arrivals = len(arrival_times)
        next_arrival = 0
        # Everything cached is in the pool from the start; transferred
        # experts never become stealable.
        n_stealable = len(pool)
        can_steal = self.config.allow_cpu_steal
        steal_factor = 1.0 - self.config.steal_margin
        while True:
            while next_arrival < n_arrivals and arrival_times[next_arrival] <= t_gpu:
                slot = arrival_slots[next_arrival]
                insort(pool, slot)
                n_stealable += stealable[slot]
                next_arrival += 1
            if pool:
                gpu_start = t_gpu
            elif next_arrival < n_arrivals:
                gpu_start = arrival_times[next_arrival]
            else:
                break
            # The idle CPU acts first on a tie — except against its own
            # last job, which the GPU's same-instant dispatch precedes.
            if (
                can_steal
                and n_stealable
                and gpu_start >= t_cpu
                and gpu_start > own_start
            ):
                # Lowest load, lowest id on ties: the last stealable
                # slot of the lowest stealable load.
                pick = -1
                for index, slot in enumerate(pool):
                    if pick >= 0 and load_of[slot] != load_of[pool[pick]]:
                        break
                    if stealable[slot]:
                        pick = index
                slot = pool[pick]
                duration = table.cpu(load_of[slot], not cpu_any)
                finish = t_gpu
                for queued in reversed(pool):
                    finish += gpu_dur[queued]
                for j in range(next_arrival, n_arrivals):
                    finish = max(finish, arrival_times[j]) + gpu_dur[arrival_slots[j]]
                if t_cpu + duration >= finish * steal_factor:
                    can_steal = False
                else:
                    del pool[pick]
                    n_stealable -= 1
                    t_cpu += duration
                    cpu_any = True
                    own_start = _NEG_INF
                continue
            if not pool:
                while (
                    next_arrival < n_arrivals
                    and arrival_times[next_arrival] <= gpu_start
                ):
                    slot = arrival_slots[next_arrival]
                    insort(pool, slot)
                    n_stealable += stealable[slot]
                    next_arrival += 1
            slot = pool.pop()
            n_stealable -= stealable[slot]
            t_gpu = gpu_start + gpu_dur[slot]
        return max(t_gpu, t_cpu if cpu_any else 0.0)

    # ------------------------------------------------------------------
    # the event-driven schedule simulation (reference oracle)
    # ------------------------------------------------------------------
    def _simulate(
        self,
        loads: dict[int, int],
        cached_experts: set[int],
        oracle: LayerCostOracle,
        k_transfers: int,
        pcie_backlog: float,
        include_shared: bool,
        inflight: dict[int, float] | None = None,
        cpu_backlog: float = 0.0,
        spilled: frozenset[int] = frozenset(),
        disk_fetch_s: float = 0.0,
    ) -> SimulationResult:
        """Fill the three timelines for one transfer allocation.

        The simulation advances the resource whose next operation
        *starts* earliest, exactly reproducing the interleaving a real
        run with these priority queues would produce. This is the
        reference oracle the fast path is property-tested against.
        Spilled experts (tiered memory) pay ``disk_fetch_s`` before
        their PCIe transfer or CPU compute — the planner's serialised
        estimate of the disk -> CPU -> GPU chain.
        """
        inflight = inflight or {}
        by_load_desc = sorted(loads, key=lambda e: (-loads[e], e))
        uncached_desc = [e for e in by_load_desc if e not in cached_experts]
        cached_desc = [
            e for e in by_load_desc if e in cached_experts and e not in inflight
        ]

        transfer_list = uncached_desc[:k_transfers]
        cpu_jobs = sorted(
            (e for e in uncached_desc[k_transfers:]), key=lambda e: (loads[e], e)
        )

        # PCIe: sequential transfers, high-load first, behind the backlog.
        # In-flight prefetches arrive at their own ready offsets without
        # consuming new PCIe time (their transfers are already queued).
        arrivals: list[tuple[float, int]] = [
            (ready, e) for e, ready in inflight.items()
        ]
        t_pcie = pcie_backlog
        for expert in transfer_list:
            if expert in spilled:
                t_pcie += disk_fetch_s
            t_pcie += oracle.transfer()
            arrivals.append((t_pcie, expert))
        arrivals.sort(key=lambda pair: (pair[0], -loads[pair[1]], pair[1]))

        gpu_order: list[SimulatedTask] = []
        cpu_order: list[SimulatedTask] = []
        stolen: list[int] = []

        t_gpu = 0.0
        if include_shared:
            shared_dur = oracle.shared_compute(Device.GPU)
            if shared_dur > 0.0:
                gpu_order.append(SimulatedTask(SHARED_BLOCK, 0.0, shared_dur, "gpu"))
                t_gpu = shared_dur

        gpu_pool: list[int] = list(cached_desc)  # descending load
        arrival_idx = 0
        t_cpu = cpu_backlog  # shared-CPU work of earlier devices queues ahead
        cpu_idx = 0
        cpu_finished = False

        def absorb_arrivals(up_to: float) -> None:
            nonlocal arrival_idx
            while arrival_idx < len(arrivals) and arrivals[arrival_idx][0] <= up_to:
                expert = arrivals[arrival_idx][1]
                # Insert preserving descending-load order (paper: a
                # transferred expert joins the GPU queue by load).
                position = 0
                while position < len(gpu_pool) and (
                    loads[gpu_pool[position]] > loads[expert]
                    or (
                        loads[gpu_pool[position]] == loads[expert]
                        and gpu_pool[position] < expert
                    )
                ):
                    position += 1
                gpu_pool.insert(position, expert)
                arrival_idx += 1

        def gpu_finish_estimate() -> float:
            """Lower-bound finish time of all GPU-bound work (no steal)."""
            t = t_gpu
            for expert in gpu_pool:
                t += oracle.gpu_compute(loads[expert])
            for ready, expert in arrivals[arrival_idx:]:
                t = max(t, ready) + oracle.gpu_compute(loads[expert])
            return t

        while True:
            absorb_arrivals(t_gpu)
            # --- candidate GPU action -------------------------------------
            if gpu_pool:
                gpu_start = t_gpu
            elif arrival_idx < len(arrivals):
                gpu_start = max(t_gpu, arrivals[arrival_idx][0])
            else:
                gpu_start = float("inf")
            # --- candidate CPU action -------------------------------------
            steal_candidates = [e for e in gpu_pool if e in cached_experts]
            cpu_can_steal = (
                self.config.allow_cpu_steal
                and not cpu_finished
                and cpu_idx >= len(cpu_jobs)
                and bool(steal_candidates)
            )
            if cpu_idx < len(cpu_jobs):
                cpu_start = t_cpu
            elif cpu_can_steal:
                cpu_start = t_cpu
            else:
                cpu_start = float("inf")

            if gpu_start == float("inf") and cpu_start == float("inf"):
                break

            # Tie-break: a beneficial CPU steal commits before the GPU's
            # pop of the same instant — when the CPU can finish a cached
            # expert sooner than the GPU would clear its queue, holding
            # the expert hostage on the GPU only inflates the makespan.
            cpu_wins_tie = gpu_start == cpu_start and cpu_idx >= len(cpu_jobs)
            if gpu_start <= cpu_start and not cpu_wins_tie:
                absorb_arrivals(gpu_start)
                if not gpu_pool:
                    raise SchedulingError("simulation invariant: empty GPU pool at dispatch")
                expert = gpu_pool.pop(0)
                duration = oracle.gpu_compute(loads[expert])
                gpu_order.append(
                    SimulatedTask(expert, gpu_start, gpu_start + duration, "gpu")
                )
                t_gpu = gpu_start + duration
            else:
                if cpu_idx < len(cpu_jobs):
                    expert = cpu_jobs[cpu_idx]
                    cpu_idx += 1
                else:
                    # Steal the lowest-load cached expert if the CPU can
                    # finish it before the GPU would get everything done.
                    # (Cached, hence never spilled — no disk surcharge.)
                    candidate = min(steal_candidates, key=lambda e: (loads[e], e))
                    duration = oracle.cpu_compute(
                        loads[candidate], first_task=not cpu_order
                    )
                    threshold = gpu_finish_estimate() * (1.0 - self.config.steal_margin)
                    if t_cpu + duration >= threshold:
                        cpu_finished = True
                        continue
                    gpu_pool.remove(candidate)
                    stolen.append(candidate)
                    expert = candidate
                duration = oracle.cpu_compute(loads[expert], first_task=not cpu_order)
                if expert in spilled:
                    duration += disk_fetch_s
                cpu_order.append(
                    SimulatedTask(expert, t_cpu, t_cpu + duration, "cpu")
                )
                t_cpu += duration

        # The CPU contributes to the makespan only through tasks of this
        # layer — a pre-existing backlog with no CPU work here is other
        # devices' problem, not this plan's.
        cpu_end = cpu_order[-1].finish if cpu_order else 0.0
        makespan = max(t_gpu, cpu_end)
        return SimulationResult(
            makespan=makespan,
            transfers=list(transfer_list),
            gpu_order=gpu_order,
            cpu_order=cpu_order,
            stolen=stolen,
            loads=dict(loads),
        )

    # ------------------------------------------------------------------
    # plan assembly
    # ------------------------------------------------------------------
    def _materialise(
        self,
        layer: int,
        n_tokens: int,
        sim: SimulationResult,
        oracle: LayerCostOracle,
        include_shared: bool,
    ) -> ExecutionPlan:
        transferred = set(sim.transfers)
        gpu_tasks = []
        for task in sim.gpu_order:
            if task.expert == SHARED_BLOCK:
                gpu_tasks.append(
                    ComputeTask(layer, SHARED_BLOCK, n_tokens, Device.GPU)
                )
            else:
                gpu_tasks.append(
                    ComputeTask(
                        layer,
                        task.expert,
                        sim.loads[task.expert],
                        Device.GPU,
                        after_transfer=task.expert in transferred,
                    )
                )
        cpu_tasks = [
            ComputeTask(layer, task.expert, sim.loads[task.expert], Device.CPU)
            for task in sim.cpu_order
        ]
        transfers = [
            TransferTask(layer, expert, sim.loads[expert]) for expert in sim.transfers
        ]
        return ExecutionPlan(
            layer=layer,
            n_tokens=n_tokens,
            gpu_tasks=gpu_tasks,
            cpu_tasks=cpu_tasks,
            transfers=transfers,
            estimated_makespan=sim.makespan,
            metadata={
                "scheduler": "hybrid",
                "transfer_count": len(sim.transfers),
                "stolen": list(sim.stolen),
                "include_shared": include_shared,
            },
        )
