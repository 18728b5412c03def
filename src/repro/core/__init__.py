"""HybriMoE core: hybrid scheduling, plan execution and prefetching.

This package implements the paper's primary contribution:

- :mod:`repro.core.tasks` — execution-plan vocabulary (compute tasks,
  transfers, the per-layer cost oracle);
- :mod:`repro.core.hybrid_scheduler` — the schedule-simulation planner
  of §IV-B: priority queues per resource, an event-driven simulation
  that fills the CPU/GPU/PCIe timelines, and a search over transfer
  allocations that minimises estimated makespan;
- :mod:`repro.core.executor` — replays a plan against the engine's
  discrete-event clock with the *actual* cost model; the clock's
  labelled timelines are the record of what ran;
- :mod:`repro.core.prefetch` — the impact-driven prefetcher of §IV-C,
  ranking candidate experts of the next layers by simulated makespan
  reduction;
- :mod:`repro.core.strategy` — the full HybriMoE strategy with
  component toggles (scheduling / prefetching / caching) used by the
  Table III ablation.
"""

from repro.core.executor import LayerExecutionResult, execute_plan
from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.prefetch import ImpactDrivenPrefetcher, PrefetchDecision, PredictedLayer
from repro.core.tasks import (
    ComputeTask,
    Device,
    ExecutionPlan,
    LayerCostOracle,
    TransferTask,
)

__all__ = [
    "Device",
    "ComputeTask",
    "TransferTask",
    "ExecutionPlan",
    "LayerCostOracle",
    "HybridScheduler",
    "SchedulerConfig",
    "execute_plan",
    "LayerExecutionResult",
    "ImpactDrivenPrefetcher",
    "PrefetchDecision",
    "PredictedLayer",
]
