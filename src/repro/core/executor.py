"""Plan execution against the discrete-event clock.

:func:`execute_plan` replays an :class:`~repro.core.tasks.ExecutionPlan`
on the engine's :class:`~repro.hardware.simulator.ThreeResourceClock`
using the *actual* cost model. The planner's simulation used estimated
durations; execution re-derives every duration from ground truth, so
estimate-vs-reality gaps (warmup fitting error, degraded hardware) show up
as schedule slack or overruns exactly as they would on hardware.

Dependencies honoured:

- tasks on one resource run serially in plan order;
- every copy goes through :meth:`ThreeResourceClock.copy
  <repro.hardware.simulator.ThreeResourceClock.copy>`, which records its
  landing in ``clock.landing``: a GPU task waits for its expert's GPU
  landing (this plan's transfer or an earlier prefetch or refill), and a
  transfer or CPU task for its DRAM landing (a demotion or staging in
  flight);
- on a tiered-memory platform, a **spilled** expert is first read
  disk -> DRAM on the clock's shared disk link.

The clock's timelines are the one record of what ran: every reservation
is labelled ``xfer|gpu|cpu|disk L{layer} E{expert}`` (the shared block
is expert ``-1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tasks import Device, ExecutionPlan, LayerCostOracle
from repro.errors import SchedulingError
from repro.hardware.simulator import ThreeResourceClock

__all__ = ["LayerExecutionResult", "execute_plan"]


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
    device: int = 0,
    spilled: frozenset[int] | set[int] | None = None,
) -> LayerExecutionResult:
    """Execute a validated plan, reserving real timeline intervals.

    Parameters
    ----------
    plan:
        The per-layer plan (already validated by the engine).
    clock:
        The engine's absolute-time resource ledger; its ``landing`` map
        gates every use of an expert on the copy that brought it.
    oracle:
        Duration oracle bound to the *actual* cost model.
    start_time:
        Earliest moment any MoE work of this layer may begin (the end of
        the layer's attention phase: routing is only known then).
    device:
        GPU device this plan is bound to: its compute tasks reserve on
        ``clock.gpus[device]`` and its transfers on that device's PCIe
        link. CPU tasks always run on the shared CPU timeline, so
        multi-device plans executed in sequence serialise there.
    spilled:
        Expert ids of this layer to read off disk first (tiered
        platforms): each reserves a ``disk`` row on ``clock.disk``
        before its PCIe transfer or CPU compute. ``None``/empty keeps
        the historical two-tier execution byte-for-byte.

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
    landing = clock.landing
    gpu_timeline = clock.gpu_timeline(device)

    # --- PCIe: on-demand transfers, in plan order ----------------------
    transfer_end = start_time
    for transfer in plan.transfers:
        key = (transfer.layer, transfer.expert)
        if transfer.expert in spilled:
            clock.copy("disk", key, start_time, oracle.disk_fetch())
        finish = clock.copy("xfer", key, start_time, oracle.transfer(), device)
        transfer_end = max(transfer_end, finish)

    # --- GPU compute ----------------------------------------------------
    compute_end = start_time
    for task in plan.gpu_tasks:
        if task.is_shared:
            duration = oracle.shared_compute(Device.GPU)
            earliest = start_time
        else:
            duration = oracle.gpu_compute(task.load)
            earliest = max(start_time, landing.get(((task.layer, task.expert), "gpu"), 0.0))
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
            # The CPU computes in place from DRAM: it waits for the
            # expert's copy there (a spilled one is read off disk first).
            key = (task.layer, task.expert)
            if task.expert in spilled:
                clock.copy("disk", key, start_time, oracle.disk_fetch())
            earliest = max(start_time, landing.get((key, "dram"), 0.0))
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
