"""The reference planner: the paper's §IV-B search taken literally.

The property-test oracle of :class:`~repro.core.hybrid_scheduler.HybridScheduler`.
``_simulate`` (one from-scratch event-driven simulation of the three
timelines per transfer count, one oracle call per event), the plain
ascending replace-if-better-by-eps scan over every candidate
(``_best_simulation``) and ``_materialise`` are the code that was the
planner's ``fast_path=False`` branch, moved here verbatim when the
switch was deleted. Production plans must equal this module's, float
for float and task for task; nothing under ``src/`` imports it.

Only the candidate transfer counts and the config are shared with the
production class (inherited). It works on the caller's expert ids
throughout — its own input validation, no canonical shape, no memo — so
it is also the oracle of the production planner's rank translation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.hybrid_scheduler import _TIE_EPS, HybridScheduler
from repro.core.tasks import (
    SHARED_BLOCK,
    ComputeTask,
    Device,
    ExecutionPlan,
    LayerCostOracle,
    TransferTask,
)
from repro.errors import SchedulingError

__all__ = ["ReferencePlanner", "install_reference_planner"]


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


class ReferencePlanner(HybridScheduler):
    """``plan`` / ``simulate_makespan`` through the reference simulator."""

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
        return self._materialise(layer, n_tokens, best, oracle, include_shared)

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
        return best.makespan

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
        """The id-keyed input validation the planner had before it
        canonicalised its inputs into ranks, moved here verbatim.

        NaN fails the ``>= 0`` tests; ``inf`` is a legal dead resource.
        The effective spilled set is intersected with the *uncached*
        activated experts: a GPU-cached expert never touches disk, and
        spill state of non-activated experts is irrelevant to this
        layer's plan.
        """
        if not pcie_backlog >= 0:
            raise SchedulingError(f"pcie_backlog must be non-negative, got {pcie_backlog}")
        if not cpu_backlog >= 0:
            raise SchedulingError(f"cpu_backlog must be non-negative, got {cpu_backlog}")
        if not disk_fetch_s >= 0:
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
            # A start of ``inf`` is still an action (an expert arriving
            # at ``inf`` runs then); ``None`` means there is none.
            if gpu_pool:
                gpu_start = t_gpu
            elif arrival_idx < len(arrivals):
                gpu_start = max(t_gpu, arrivals[arrival_idx][0])
            else:
                gpu_start = None
            # --- candidate CPU action -------------------------------------
            steal_candidates = [e for e in gpu_pool if e in cached_experts]
            cpu_can_steal = (
                self.config.allow_cpu_steal
                and not cpu_finished
                and cpu_idx >= len(cpu_jobs)
                and bool(steal_candidates)
            )
            if cpu_idx < len(cpu_jobs) or cpu_can_steal:
                cpu_start = t_cpu
            else:
                cpu_start = None

            if gpu_start is None and cpu_start is None:
                break

            # Tie-break: a beneficial CPU steal commits before the GPU's
            # pop of the same instant — when the CPU can finish a cached
            # expert sooner than the GPU would clear its queue, holding
            # the expert hostage on the GPU only inflates the makespan.
            cpu_wins_tie = gpu_start == cpu_start and cpu_idx >= len(cpu_jobs)
            if cpu_start is None or (
                gpu_start is not None and gpu_start <= cpu_start and not cpu_wins_tie
            ):
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
                    if t_cpu + duration >= gpu_finish_estimate():
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


def install_reference_planner(engine):
    """Swap a built engine's planner for the oracle, memo off.

    Replaces the runtime's scheduler and the prefetcher's reference to
    it — the two holders an engine has — and returns the engine. A
    strategy that built no planner (every baseline) is left as is.
    """
    runtime = engine.runtime
    if runtime.scheduler is None:
        return engine
    reference = ReferencePlanner(
        runtime.estimated_oracle,
        dataclasses.replace(runtime.scheduler.config, plan_cache_size=0),
    )
    runtime.scheduler = reference
    prefetcher = getattr(engine.strategy, "_prefetcher", None)
    if prefetcher is not None:
        prefetcher.scheduler = reference
    return engine
