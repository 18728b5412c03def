"""Hardware substrate: analytic cost models and resource timelines.

This package replaces the paper's physical testbed (RTX A6000 + 10-core
Xeon + PCIe) with an analytic roofline cost model and discrete-event
resource timelines. The cost model is calibrated to the paper's measured
behaviour (Fig. 3e/f): GPU expert time is roughly constant in the token
load (weight-bandwidth bound at inference batch sizes), CPU time grows
linearly with load (FLOP bound) with a first-task warmup penalty, and
PCIe transfer time is constant per expert.

A :class:`HardwareProfile` value is the only description of a
platform: the presets are values, and any other platform is a
``dataclasses.replace`` of one. Every profile describes a disk tier
(``disk_bw``), the bottom of the tiered memory hierarchy: on engines
whose host DRAM is capacity-limited, spilled experts pay a
constant-per-expert disk read on a platform-shared disk link before any
CPU compute or PCIe transfer (see ``docs/MEMORY.md``).

A :class:`ThreeResourceClock` owns one :class:`ResourceTimeline` per
GPU, PCIe link, the CPU and (tiered platforms) the disk link; every
reservation on them is a labelled interval, the record of what ran.
"""

from repro.hardware.cost_model import (
    AnalyticCostModel,
    CostModel,
    FittedCostModel,
    HardwareProfile,
)
from repro.hardware.device import ResourceTimeline, TimelineInterval
from repro.hardware.faults import (
    FAULT_KINDS,
    HARDWARE_FAULT_KINDS,
    DegradationEvent,
    DegradationState,
    DegradedCostModel,
    Fault,
    FaultSchedule,
)
from repro.hardware.platform_presets import (
    HARDWARE_PRESETS,
    disk_slow_testbed,
    edge_testbed,
    get_hardware_preset,
    paper_testbed,
)
from repro.hardware.simulator import ThreeResourceClock
from repro.hardware.warmup import WarmupCalibrator

__all__ = [
    "CostModel",
    "AnalyticCostModel",
    "FittedCostModel",
    "HardwareProfile",
    "FAULT_KINDS",
    "HARDWARE_FAULT_KINDS",
    "Fault",
    "FaultSchedule",
    "DegradationState",
    "DegradationEvent",
    "DegradedCostModel",
    "ResourceTimeline",
    "TimelineInterval",
    "ThreeResourceClock",
    "WarmupCalibrator",
    "HARDWARE_PRESETS",
    "paper_testbed",
    "disk_slow_testbed",
    "edge_testbed",
    "get_hardware_preset",
]
