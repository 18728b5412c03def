"""Plan execution against the discrete-event clock.

:func:`execute_plan` replays an :class:`~repro.core.tasks.ExecutionPlan`
on the engine's :class:`~repro.hardware.simulator.ThreeResourceClock`
using the *actual* cost model. The planner's simulation used estimated
durations; execution re-derives every duration from ground truth, so
estimate-vs-reality gaps (warmup fitting error, degraded hardware) show up
as schedule slack or overruns exactly as they would on hardware.

Dependencies honoured:

- tasks on one resource run serially in plan order;
- a GPU compute task flagged ``after_transfer`` cannot start before its
  transfer finishes;
- externally in-flight arrivals (prefetches from earlier layers) gate
  GPU tasks through the ``arrivals`` map;
- on a tiered-memory platform, a **spilled** expert's weights are first
  staged disk -> DRAM on the clock's shared disk link; its PCIe
  transfer and/or CPU compute cannot start before that read finishes,
  nor any expert's before its copy into DRAM in flight (``staging``) lands.

The clock's timelines are the one record of what ran: every reservation
is labelled ``xfer|gpu|cpu|disk L{layer} E{expert}`` (the shared block
is expert ``-1``). The in-flight arrivals map is never copied: the
plan's own transfers go to a local overlay that shadows it on lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tasks import Device, ExecutionPlan, LayerCostOracle
from repro.errors import SchedulingError
from repro.hardware.simulator import ThreeResourceClock

__all__ = ["LayerExecutionResult", "execute_plan"]

_NO_ARRIVALS: dict[tuple[int, int], float] = {}


@dataclass
class LayerExecutionResult:
    """Committed timings of one layer's MoE phase."""

    layer: int
    start_time: float
    compute_end: float
    transfer_end: float

    @property
    def makespan(self) -> float:
        """Wall time from phase start to last compute finish."""
        return self.compute_end - self.start_time


def execute_plan(
    plan: ExecutionPlan,
    clock: ThreeResourceClock,
    oracle: LayerCostOracle,
    start_time: float,
    external_arrivals: dict[tuple[int, int], float] | None = None,
    device: int = 0,
    spilled: frozenset[int] | set[int] | None = None,
    staging: dict[tuple[int, int], float] | None = None,
) -> LayerExecutionResult:
    """Execute a validated plan, reserving real timeline intervals.

    Parameters
    ----------
    plan:
        The per-layer plan (already validated by the engine).
    clock:
        The engine's absolute-time resource ledger.
    oracle:
        Duration oracle bound to the *actual* cost model.
    start_time:
        Earliest moment any MoE work of this layer may begin (the end of
        the layer's attention phase: routing is only known then).
    external_arrivals:
        Completion times of in-flight transfers issued by earlier
        layers' prefetches, keyed by ``(layer, expert)``. A GPU task for
        such an expert waits for its arrival.
    device:
        GPU device this plan is bound to: its compute tasks reserve on
        ``clock.gpus[device]`` and its transfers on that device's PCIe
        link. CPU tasks always run on the shared CPU timeline, so
        multi-device plans executed in sequence serialise there.
    spilled:
        Expert ids of this layer resident in no memory tier (tiered
        platforms): each first reserves a disk read on ``clock.disk``,
        gating its PCIe transfer or CPU compute. ``None``/empty keeps
        the historical two-tier execution byte-for-byte.
    staging:
        Landing times of copies into DRAM in flight by ``(layer, expert)``:
        an expert here waits for its copy (a spilled one reads no disk). Never written.

    Returns
    -------
    LayerExecutionResult
        The layer's compute and transfer end times.
    """
    if start_time < 0:
        raise SchedulingError(f"start_time must be non-negative, got {start_time}")
    spilled = spilled or frozenset()
    if spilled and clock.disk is None:
        raise SchedulingError(
            "plan has spilled experts but the clock models no disk tier"
        )
    # This plan's own transfers shadow external prefetch arrivals; the
    # external map is never written and never copied.
    local_arrivals: dict[tuple[int, int], float] = {}
    external = external_arrivals or _NO_ARRIVALS
    staging = staging or _NO_ARRIVALS
    gpu_timeline = clock.gpu_timeline(device)
    pcie_timeline = clock.pcie_timeline(device)

    def arrival_of(layer: int, expert: int) -> float:
        key = (layer, expert)
        when = local_arrivals.get(key)
        if when is not None:
            return when
        return external.get(key, start_time)

    def in_dram(layer: int, expert: int) -> float:
        """When the weights are in DRAM: a copy in flight lands, else a spilled one is read."""
        ready = staging.get((layer, expert))
        if ready is not None:
            return ready
        if expert not in spilled:
            return start_time
        return clock.disk.reserve(
            start_time, oracle.disk_fetch(), f"disk L{layer} E{expert}"
        )[1]

    # --- PCIe: on-demand transfers, in plan order ----------------------
    transfer_end = start_time
    for transfer in plan.transfers:
        earliest = start_time
        if staging or transfer.expert in spilled:
            earliest = max(earliest, in_dram(transfer.layer, transfer.expert))
        _, finish = pcie_timeline.reserve(
            earliest, oracle.transfer(), f"xfer L{transfer.layer} E{transfer.expert}"
        )
        local_arrivals[(transfer.layer, transfer.expert)] = finish
        transfer_end = max(transfer_end, finish)

    # --- GPU compute ----------------------------------------------------
    compute_end = start_time
    for task in plan.gpu_tasks:
        if task.is_shared:
            duration = oracle.shared_compute(Device.GPU)
            earliest = start_time
        else:
            duration = oracle.gpu_compute(task.load)
            earliest = max(start_time, arrival_of(task.layer, task.expert))
        _, finish = gpu_timeline.reserve(
            earliest, duration, f"gpu L{task.layer} E{task.expert}"
        )
        compute_end = max(compute_end, finish)

    # --- CPU compute ----------------------------------------------------
    first_cpu = True
    for task in plan.cpu_tasks:
        earliest = start_time
        if task.is_shared:
            duration = oracle.shared_compute(Device.CPU, first_task=first_cpu)
        else:
            if staging or task.expert in spilled:
                # The CPU computes in place from DRAM: a spilled expert
                # must be staged off disk before its compute can start.
                earliest = max(earliest, in_dram(task.layer, task.expert))
            duration = oracle.cpu_compute(task.load, first_task=first_cpu)
        first_cpu = False
        _, finish = clock.cpu.reserve(
            earliest, duration, f"cpu L{task.layer} E{task.expert}"
        )
        compute_end = max(compute_end, finish)

    return LayerExecutionResult(
        layer=plan.layer,
        start_time=start_time,
        compute_end=compute_end,
        transfer_end=transfer_end,
    )
