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

The search simulates few candidates. It resolves the priority orders,
per-expert durations, the PCIe arrival prefix and the CPU queue's
running sums once, and prunes with two exact lower bounds — the
transfer chain rises with ``k``, the CPU queue falls with it. The
candidate where the two bounds cross is simulated first; its makespan
only tightens the pruning threshold of an ascending scan (see
:func:`_scan_candidates` for why that cannot move the argmin). One
O(n log n) event loop (:meth:`HybridScheduler._run_schedule`) evaluates
a candidate and records its GPU dispatch order and steal list, so the
winner's :class:`~repro.core.tasks.ExecutionPlan` comes straight out of
the search. The prefetcher's quick screens run through the same
routine.

Plans are **bit-identical** to the paper's description taken literally
— every transfer count simulated from scratch, ascending, an incumbent
replaced only by a makespan better by more than ``_TIE_EPS`` — which
lives in ``tests/reference_planner.py`` as the property-test oracle.

On a **tiered-memory platform** (capacity-limited host DRAM over disk
spill) the planner additionally receives the layer's *spilled* expert
set and the estimated per-expert disk -> DRAM read time. A spilled
expert pays that read before either use: its PCIe transfer chain grows
by one disk hop (disk -> CPU -> GPU) and its CPU-fallback compute is
delayed by the same fetch. With an empty spilled set (the default
two-tier platform) every duration is byte-for-byte the two-tier one.

On top of the search sits a bounded LRU **plan memo** keyed on the
*shape* of a layer's problem (:class:`_LayerShape`): per activated
expert in ascending id its load, cached flag, spilled flag and
in-flight offset, plus the scalars the search reads. Expert ids enter
the planner only through order comparisons and membership tests, so a
strictly increasing relabelling changes no schedule: the search runs on
*ranks* (positions in ascending id), the memo stores rank results, and
every call translates them to its own ids and ``layer`` on the way out.
The layer index and every non-activated member of the cached / spilled
/ in-flight sets are unread and stay out of the key. Keys are complete
up to that relabelling — equal keys always produce equal plans — so
nothing is ever invalidated; a decode layer is six ``(load=1, cached?)``
flags, making hits the common case. Memoization assumes the oracle
factory is deterministic per ``n_tokens`` (true of the engine's
estimated cost models; a stateful noisy oracle must disable it via
``plan_cache_size=0``).
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.tasks import (
    SHARED_BLOCK,
    ComputeTask,
    Device,
    ExecutionPlan,
    LayerCostOracle,
    TransferTask,
)
from repro.errors import SchedulingError

__all__ = ["SchedulerConfig", "HybridScheduler"]

#: Strict-improvement tolerance of the allocation argmin (shared by the
#: scan, its lower-bound pruning and the reference scan in ``tests/``).
_TIE_EPS = 1e-15
_NEG_INF = float("-inf")


def _scan_candidates(counts, bounds, makespan) -> tuple[int, float]:
    """The reference's ascending argmin over ``counts``, simulating few.

    ``bounds[i]`` is a lower bound on ``makespan(i)``, the exact
    makespan of transfer count ``counts[i]``. The reference (the plain
    scan of ``tests/reference_planner.py``) simulates every count in
    ascending order and replaces its incumbent only by a
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
        GPU queue (the paper's CPU priority rule, second clause): a
        steal happens only if the CPU would finish the stolen expert
        before the GPU's estimated finish time.
    plan_cache_size:
        Entries of the bounded LRU memo over ``plan()`` /
        ``simulate_makespan()`` results. ``0`` disables memoization.
        Requires a deterministic oracle factory (see module docs).
    """

    search_transfers: bool = True
    allow_cpu_steal: bool = True
    plan_cache_size: int = 1024

    def __post_init__(self) -> None:
        if self.plan_cache_size < 0:
            raise SchedulingError(
                f"plan_cache_size must be non-negative, got {self.plan_cache_size}"
            )


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


class _LayerShape(NamedTuple):
    """One layer's planning problem with the expert ids taken out.

    Everything the search reads, indexed by *rank* (position of the
    expert in ascending id) — the search's input and, being hashable
    and exact, the body of the memo key. ``spill`` and ``ready`` are
    ``()`` when no activated expert is spilled / in flight; a backlog
    or disk cost nothing can read is held at ``0.0`` (see
    :meth:`HybridScheduler._canonical`).
    """

    loads: tuple[int, ...]
    cached: tuple[bool, ...]
    spill: tuple[bool, ...]  # spilled *and* uncached
    ready: tuple[float | None, ...]  # in-flight offset of a cached expert, >= 0
    pcie_backlog: float
    cpu_backlog: float
    disk_fetch_s: float


class HybridScheduler:
    """Schedule-simulation planner implementing eq. (2) of the paper.

    Parameters
    ----------
    oracle_factory:
        Callable ``(n_tokens) -> LayerCostOracle`` giving *estimated*
        durations (typically a warmup-fitted cost model). The planner
        never sees actual execution times. Must be deterministic per
        ``n_tokens``: durations are tabulated per load, results memoized.
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
        ids, shape = self._canonical(
            activated, cached_experts, pcie_backlog, cpu_backlog, inflight,
            spilled, disk_fetch_s,
        )
        loads, cached = shape.loads, shape.cached

        def search():
            # The winning allocation in the three priority orders: the k
            # highest loads ride PCIe, the rest queue on the CPU lowest
            # load first (steals follow, in steal order), and the GPU
            # runs the shared block and then whatever the event loop
            # dispatched.
            table = self._duration_table(n_tokens)
            order = self._gpu_priority(loads)
            k, makespan, gpu_order, stolen = self._search(
                order, shape, table, include_shared
            )
            uncached = [r for r in order if not cached[r]]
            own = sorted(uncached[k:], key=lambda r: (loads[r], r))
            shared_first = include_shared and table.shared_gpu > 0.0
            return makespan, shared_first, gpu_order, own, stolen, uncached[:k]

        makespan, shared_first, gpu_order, own, stolen, transferred = self._memoized(
            ("plan", n_tokens, include_shared, shape), search
        )
        # Ranks back to this call's ids and layer — a fresh plan per
        # call, hit or miss. Of the GPU's tasks exactly the uncached
        # experts arrived by transfer.
        gpu_tasks = [
            ComputeTask(layer, ids[r], loads[r], Device.GPU, after_transfer=not cached[r])
            for r in gpu_order
        ]
        if shared_first:
            gpu_tasks.insert(0, ComputeTask(layer, SHARED_BLOCK, n_tokens, Device.GPU))
        return ExecutionPlan(
            layer=layer,
            n_tokens=n_tokens,
            gpu_tasks=gpu_tasks,
            cpu_tasks=[
                ComputeTask(layer, ids[r], loads[r], Device.CPU) for r in own + stolen
            ],
            transfers=[TransferTask(layer, ids[r], loads[r]) for r in transferred],
            estimated_makespan=makespan,
            metadata={
                "scheduler": "hybrid",
                "transfer_count": len(transferred),
                "stolen": [ids[r] for r in stolen],
                "include_shared": include_shared,
            },
        )

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
        _, shape = self._canonical(
            activated, cached_experts, pcie_backlog, cpu_backlog, inflight,
            spilled, disk_fetch_s,
        )
        return self._memoized(
            ("mk", n_tokens, include_shared, quick, shape),
            lambda: self._search(
                self._gpu_priority(shape.loads), shape,
                self._duration_table(n_tokens), include_shared, quick,
            )[1],
        )

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
        ids, shape = self._canonical(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        absent = len(ids)
        return self._quick_bounds(
            self._gpu_priority(shape.loads), shape,
            self._duration_table(n_tokens), (absent,),
        )[absent]

    @staticmethod
    def _quick_bounds(
        order: list[int],
        shape: _LayerShape,
        table: _DurationTable,
        candidates: tuple[int, ...],
    ) -> dict[int, float]:
        """Quick-makespan lower bound with each candidate taken as cached.

        ``order`` is :meth:`_gpu_priority` of ``shape.loads``;
        candidates are ranks. A candidate is filtered out of the
        uncached experts (the absent rank filters nothing), which
        preserves order, so every bound adds the same floats in the
        same order as a from-scratch call with the candidate cached (it
        leaves the spilled set with that).
        """
        loads, cached, spill, _, _, _, disk_fetch_s = shape
        uncached_desc = [r for r in order if not cached[r]]
        cpu_jobs_all = sorted(uncached_desc, key=lambda r: (loads[r], r))
        gpu_t0 = table.shared_gpu if table.shared_gpu > 0.0 else 0.0
        transfer = table.transfer
        bounds = {}
        for candidate in candidates:
            remaining = [r for r in uncached_desc if r != candidate]
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
                if spill and spill[expert]:
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
                if spill and spill[expert]:
                    duration += disk_fetch_s
                t_cpu += duration
                first = False
            bounds[candidate] = min(chain, max(gpu_t0, t_cpu))
        return bounds

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
        the whole batch memoizes as one ``"qb"`` entry, by candidate
        rank; the dict returned is built per call.
        """
        ids, shape = self._canonical(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        ranks, distinct = self._candidate_ranks(ids, candidates)
        by_rank = self._memoized(
            ("qb", n_tokens, distinct, shape),
            lambda: self._quick_bounds(
                self._gpu_priority(shape.loads), shape,
                self._duration_table(n_tokens), distinct,
            ),
        )
        return {c: by_rank[r] for c, r in zip(candidates, ranks)}

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
        entry (bounds by candidate rank; the dict returned is built per
        call). ``base`` is one :meth:`_search` call — the routine
        behind ``simulate_makespan`` — so values are bit-identical to
        the separate calls (test-enforced).
        """
        ids, shape = self._canonical(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        ranks, distinct = self._candidate_ranks(ids, candidates)

        def screen():
            table = self._duration_table(n_tokens)
            order = self._gpu_priority(shape.loads)
            base = self._search(order, shape, table, True, force_quick=True)[1]
            return base, self._quick_bounds(order, shape, table, distinct)

        base, by_rank = self._memoized(("qs", n_tokens, distinct, shape), screen)
        return base, {c: by_rank[r] for c, r in zip(candidates, ranks)}

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
        :meth:`_search`, the routine behind ``simulate_makespan``,
        so the floats are the per-call path's (test-enforced). The
        whole batch memoizes as one ``"qw"`` entry, by expert rank; the
        dict returned is built per call.
        """
        ids, shape = self._canonical(
            activated, cached_experts, 0.0, 0.0, None, spilled, disk_fetch_s
        )
        ranks, distinct = self._candidate_ranks(ids, experts)

        def simulate():
            table = self._duration_table(n_tokens)
            order = self._gpu_priority(shape.loads)
            cached, spill = shape.cached, shape.spill
            by_rank = {}
            for r in distinct:
                with_r = shape
                if r < len(ids):
                    # Rank r taken as cached: it leaves the spilled set
                    # with that. The absent rank changes nothing.
                    with_r = shape._replace(
                        cached=cached[:r] + (True,) + cached[r + 1 :],
                        spill=spill and spill[:r] + (False,) + spill[r + 1 :],
                    )
                by_rank[r] = self._search(
                    order, with_r, table, True, force_quick=True
                )[1]
            return by_rank

        by_rank = self._memoized(("qw", n_tokens, distinct, shape), simulate)
        return {e: by_rank[r] for e, r in zip(experts, ranks)}

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
    def _memoized(self, key: tuple, compute):
        """``compute()``'s rank result through the bounded LRU memo.

        Entries stay private to the scheduler: every caller rebuilds
        its plan / dict from the ranks, so nobody can mutate one.
        """
        capacity = self.config.plan_cache_size
        if capacity == 0:
            return compute()
        memo = self._memo
        entry = memo.get(key)
        if entry is None:
            self._memo_misses += 1
            entry = memo[key] = compute()
            while len(memo) > capacity:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
            self._memo_hits += 1
        return entry

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
            return [0, n_uncached]
        return list(range(n_uncached + 1))

    @staticmethod
    def _gpu_priority(loads: tuple[int, ...]) -> list[int]:
        """Ranks in GPU / transfer priority: high load first, then id."""
        return sorted(range(len(loads)), key=lambda r: (-loads[r], r))

    @staticmethod
    def _canonical(
        activated,
        cached_experts,
        pcie_backlog: float,
        cpu_backlog: float,
        inflight,
        spilled,
        disk_fetch_s: float,
    ) -> tuple[list[int], _LayerShape]:
        """Validate one call's inputs; split them into ids and shape.

        Runs on every call, memo hit or not. NaN fails the ``>= 0``
        tests (it would corrupt every timeline and never hit the memo);
        ``inf`` is a legal dead resource. One pass over the pairs sorted
        by id checks them (strictly ascending ids, positive loads) and
        ranks them: ``ids[r]`` is the expert of rank ``r``, the shape
        holds what the search reads about it. Left out because nothing
        reads it: every non-activated member of the three sets; the
        spill state of a GPU-cached expert (it never touches disk) and
        the in-flight offset of an uncached one; ``pcie_backlog`` when
        nothing is uncached (it only seeds the transfer lane of
        :meth:`_search`) and ``disk_fetch_s`` when nothing is spilled
        (it is only added under a spill flag).
        """
        if not pcie_backlog >= 0:
            raise SchedulingError(f"pcie_backlog must be non-negative, got {pcie_backlog}")
        if not cpu_backlog >= 0:
            raise SchedulingError(f"cpu_backlog must be non-negative, got {cpu_backlog}")
        if not disk_fetch_s >= 0:
            raise SchedulingError(
                f"disk_fetch_s must be non-negative, got {disk_fetch_s}"
            )
        ids: list[int] = []
        loads: list[int] = []
        cached: list[bool] = []
        previous = None
        for expert, load in sorted(activated):
            if expert == previous:
                raise SchedulingError("duplicate expert ids in activated list")
            if load <= 0:
                raise SchedulingError("activated experts must have positive load")
            previous = expert
            ids.append(expert)
            loads.append(load)
            cached.append(expert in cached_experts)
        spill: tuple = ()
        if spilled:
            spill = tuple([not c and e in spilled for e, c in zip(ids, cached)])
            if True not in spill:
                spill = ()
        ready: tuple = ()
        if inflight:
            ready = tuple(
                [
                    max(0.0, inflight[e]) if c and e in inflight else None
                    for e, c in zip(ids, cached)
                ]
            )
            if ready.count(None) == len(ready):
                ready = ()
        return ids, _LayerShape(
            tuple(loads),
            tuple(cached),
            spill,
            ready,
            pcie_backlog if False in cached else 0.0,
            cpu_backlog,
            disk_fetch_s if spill else 0.0,
        )

    @staticmethod
    def _candidate_ranks(ids: list[int], candidates) -> tuple[list[int], tuple[int, ...]]:
        """Each candidate's rank, and the distinct ranks ascending.

        A candidate that is not activated changes nothing about the
        layer, whatever its id: all of them share the rank
        ``len(ids)``.
        """
        rank_of = {expert: r for r, expert in enumerate(ids)}
        absent = len(ids)
        ranks = [rank_of.get(c, absent) for c in candidates]
        return ranks, tuple(sorted(set(ranks)))

    # ------------------------------------------------------------------
    # the search and its schedule simulation
    # ------------------------------------------------------------------
    def _search(
        self,
        order: list[int],
        shape: _LayerShape,
        table: _DurationTable,
        include_shared: bool,
        force_quick: bool = False,
    ) -> tuple[int, float, list[int], list[int]]:
        """Find the optimal transfer count and its schedule.

        ``order`` is :meth:`_gpu_priority` of ``shape.loads`` (callers
        that search many variants of one layer sort once). Returns
        ``(best_k, best_makespan, gpu_order, stolen)`` — the winner's
        GPU dispatch order and CPU steals as ranks, all a plan needs
        beyond the priority orders — bit-identical to what the
        reference would select: every candidate evaluated goes through
        :meth:`_run_schedule`, which performs the reference
        simulator's float operations in its order, and every candidate
        skipped provably cannot change the outcome of the reference's
        ascending scan.

        Two exact lower bounds drive the pruning, both built from the
        floats the simulation itself adds: the *transfer chain* (every
        transferred expert is computed on the GPU after its arrival;
        rises with ``k``) and the *CPU queue* (the CPU runs its own
        jobs back to back from the backlog, steals only extend it;
        falls with ``k``). :func:`_scan_candidates` decides from them
        which candidates need an exact simulation.
        """
        loads, cached, spill, ready, pcie_backlog, cpu_backlog, disk_fetch_s = shape
        # Slots number the experts in ascending GPU priority: the GPU's
        # next task is the pool's last element, an arrival joins by
        # insort on a plain int, and (time, -slot) is the reference's
        # arrival order. `experts[slot]` is the expert's rank.
        experts = order[::-1]
        load_of = [loads[r] for r in experts]
        gpu = table.gpu
        gpu_dur = [gpu(load) for load in load_of]
        stealable = [cached[r] for r in experts]
        if ready:
            pool = [
                s for s, r in enumerate(experts) if stealable[s] and ready[r] is None
            ]
            inflight_arrivals = [
                (ready[r], -s) for s, r in enumerate(experts) if ready[r] is not None
            ]
        else:
            pool = [s for s, is_cached in enumerate(stealable) if is_cached]
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
            if spill and spill[experts[s]]:
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
        if spill:
            position = {s: j for j, s in enumerate(lane)}
            queue = sorted(lane, key=lambda s: (load_of[s], -s))
            own = []
            for k in counts:
                start, t_cpu, first = _NEG_INF, cpu_backlog, True
                for s in queue:
                    if position[s] >= k:
                        duration = cpu(load_of[s], first)
                        if spill[experts[s]]:
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

        schedules: dict[int, tuple[list[int], list[int]]] = {}

        def makespan(i: int) -> float:
            k = counts[i]
            if ready:
                merged = sorted(
                    inflight_arrivals + [(arrive[j], -lane[j]) for j in range(k)]
                )
                times = [arrival for arrival, _ in merged]
                slots = [-negated for _, negated in merged]
            else:
                times, slots = arrive[:k], lane[:k]
            start, drain = own[i]
            gpu_order, stolen = schedules[k] = [], []
            return self._run_schedule(
                table, load_of, gpu_dur, stealable, pool[:], times, slots,
                gpu_t0, start, drain, k < n, gpu_order, stolen,
            )

        best_k, best_makespan = _scan_candidates(counts, bounds, makespan)
        gpu_order, stolen = schedules[best_k]
        return (
            best_k,
            best_makespan,
            [experts[s] for s in gpu_order],
            [experts[s] for s in stolen],
        )

    def _run_schedule(
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
        gpu_order: list[int],
        stolen: list[int],
    ) -> float:
        """The event-driven schedule simulation of one transfer allocation.

        Advances the resource whose next operation *starts* earliest,
        reproducing the interleaving a real run with these priority
        queues would produce, and returns the makespan; the slots the
        GPU dispatched and the CPU stole are appended, in order, to
        ``gpu_order`` and ``stolen``.

        Works on the slots of :meth:`_search`: ``pool`` (consumed)
        holds the GPU-eligible slots ascending, arrivals come sorted by
        ``(time, -slot)``, and the CPU enters with its own queue
        already folded into ``t_cpu`` (``own_start`` is when its last
        own job started, ``-inf`` without one). Performs the same float
        operations in the same order as the reference simulator, so
        the makespan is bit-identical; per event it costs a pop or a
        bisect instead of a scan of the pool, and the steal scan runs
        only when the CPU is actually idle with something to take.
        """
        n_arrivals = len(arrival_times)
        next_arrival = 0
        # Everything cached is in the pool from the start; transferred
        # experts never become stealable.
        n_stealable = len(pool)
        can_steal = self.config.allow_cpu_steal
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
                if t_cpu + duration >= finish:
                    can_steal = False
                else:
                    del pool[pick]
                    stolen.append(slot)
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
            gpu_order.append(slot)
            n_stealable -= stealable[slot]
            t_gpu = gpu_start + gpu_dur[slot]
        return max(t_gpu, t_cpu if cpu_any else 0.0)

