"""Execution-plan vocabulary shared by schedulers, executor and engine.

An :class:`ExecutionPlan` is the contract between a scheduling strategy
and the execution layer: ordered task lists per resource (GPU compute,
CPU compute, PCIe transfers) for one MoE layer. Plans are validated
against the activated-expert set before execution — a plan that misses
an expert, computes one twice, or runs an uncached expert on the GPU
without a transfer raises :class:`~repro.errors.SchedulingError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import SchedulingError
from repro.hardware.cost_model import CostModel
from repro.models.config import ExpertShape, MoEModelConfig

__all__ = ["Device", "ComputeTask", "TransferTask", "ExecutionPlan", "LayerCostOracle"]

#: Expert id used for the fused shared-experts block in plans and labels.
SHARED_BLOCK = -1


class Device(str, Enum):
    """Compute resource a task is assigned to."""

    GPU = "gpu"
    CPU = "cpu"


@dataclass(frozen=True)
class ComputeTask:
    """One expert computation assigned to a device.

    Attributes
    ----------
    layer:
        MoE layer index.
    expert:
        Routed expert id, or ``SHARED_BLOCK`` (-1) for the fused
        shared-experts block.
    load:
        Number of tokens this task processes.
    device:
        Where the task runs.
    after_transfer:
        True when this is a GPU task whose weights arrive via a
        transfer in the same plan (the executor enforces the
        dependency).
    """

    layer: int
    expert: int
    load: int
    device: Device
    after_transfer: bool = False

    @property
    def is_shared(self) -> bool:
        return self.expert == SHARED_BLOCK

    def __post_init__(self) -> None:
        if self.load < 0:
            raise SchedulingError(f"task load must be non-negative, got {self.load}")
        if self.after_transfer and self.device != Device.GPU:
            raise SchedulingError(
                f"after_transfer only applies to GPU tasks, got {self.device}"
            )


@dataclass(frozen=True)
class TransferTask:
    """A host-to-GPU weight transfer for one routed expert."""

    layer: int
    expert: int
    load: int

    def __post_init__(self) -> None:
        if self.expert < 0:
            raise SchedulingError(
                f"transfers only apply to routed experts, got id {self.expert}"
            )


@dataclass
class ExecutionPlan:
    """Ordered per-resource task lists for one MoE layer.

    Task order within each list is the execution order on that serial
    resource; the planner's priority rules (§IV-B) are already baked in.
    """

    layer: int
    n_tokens: int
    gpu_tasks: list[ComputeTask] = field(default_factory=list)
    cpu_tasks: list[ComputeTask] = field(default_factory=list)
    transfers: list[TransferTask] = field(default_factory=list)
    estimated_makespan: float = 0.0
    metadata: dict = field(default_factory=dict)

    def routed_compute_tasks(self) -> list[ComputeTask]:
        """All routed (non-shared) compute tasks, GPU then CPU order."""
        return [t for t in self.gpu_tasks + self.cpu_tasks if not t.is_shared]

    def computed_experts(self) -> list[int]:
        """Routed expert ids computed by this plan (order of appearance)."""
        return [t.expert for t in self.routed_compute_tasks()]

    def transferred_experts(self) -> list[int]:
        return [t.expert for t in self.transfers]

    def validate(
        self,
        activated: dict[int, int],
        cached_experts: set[int],
    ) -> None:
        """Check plan consistency against routing and cache state.

        Parameters
        ----------
        activated:
            Mapping ``expert_id -> load`` of the layer's activated
            routed experts.
        cached_experts:
            Expert ids of this layer resident on the GPU when the plan
            was made (in-flight prefetches included).

        Raises
        ------
        SchedulingError
            On any violated invariant: coverage, duplication, load
            mismatch, GPU-without-weights, or transfer of an already
            cached expert.
        """
        computed = self.computed_experts()
        computed_set = set(computed)
        if len(computed) != len(computed_set):
            duplicated = sorted({e for e in computed if computed.count(e) > 1})
            raise SchedulingError(
                f"layer {self.layer}: experts computed more than once: {duplicated}"
            )
        if computed_set != set(activated):
            missing = sorted(set(activated) - computed_set)
            extra = sorted(computed_set - set(activated))
            raise SchedulingError(
                f"layer {self.layer}: plan coverage mismatch "
                f"(missing {missing}, extra {extra})"
            )
        for task in self.routed_compute_tasks():
            if task.load != activated[task.expert]:
                raise SchedulingError(
                    f"layer {self.layer}: expert {task.expert} load {task.load} "
                    f"!= routed load {activated[task.expert]}"
                )
        transferred = self.transferred_experts()
        transferred_set = set(transferred)
        if len(transferred) != len(transferred_set):
            raise SchedulingError(f"layer {self.layer}: duplicate transfers {transferred}")
        for expert in transferred:
            if expert in cached_experts:
                raise SchedulingError(
                    f"layer {self.layer}: transfer of already cached expert {expert}"
                )
        for task in self.gpu_tasks:
            if task.is_shared:
                continue
            available = task.expert in cached_experts or task.expert in transferred_set
            if not available:
                raise SchedulingError(
                    f"layer {self.layer}: GPU computes expert {task.expert} "
                    "without cached weights or a transfer"
                )
            if task.after_transfer and task.expert not in transferred_set:
                raise SchedulingError(
                    f"layer {self.layer}: task flags after_transfer but no transfer "
                    f"exists for expert {task.expert}"
                )
        for task in self.cpu_tasks:
            if task.after_transfer:
                raise SchedulingError(
                    f"layer {self.layer}: CPU task for expert {task.expert} "
                    "cannot depend on a transfer"
                )


@dataclass(frozen=True)
class LayerCostOracle:
    """Duration oracle for one layer's tasks under a given cost model.

    Binds the cost model to the model architecture (routed/shared
    expert shapes) so schedulers and the executor ask for durations in
    terms of loads only.
    """

    cost: CostModel
    routed_shape: ExpertShape
    shared_shape: ExpertShape | None
    num_shared: int
    n_tokens: int

    @classmethod
    def for_model(
        cls, cost: CostModel, config: MoEModelConfig, n_tokens: int
    ) -> "LayerCostOracle":
        """Build the oracle from a model config (the common path)."""
        return cls(
            cost=cost,
            routed_shape=config.routed_expert_shape,
            shared_shape=config.shared_expert_shape,
            num_shared=config.num_shared_experts,
            n_tokens=n_tokens,
        )

    def gpu_compute(self, load: int) -> float:
        """GPU seconds for one routed expert processing ``load`` tokens."""
        return self.cost.gpu_expert_time(self.routed_shape, load)

    def cpu_compute(self, load: int, first_task: bool = False) -> float:
        """CPU seconds for one routed expert processing ``load`` tokens."""
        return self.cost.cpu_expert_time(self.routed_shape, load, first_task=first_task)

    def transfer(self) -> float:
        """Seconds to move one routed expert's weights over PCIe."""
        return self.cost.transfer_time(self.routed_shape)

    def disk_fetch(self) -> float:
        """Seconds to read one routed expert's weights disk -> DRAM.

        The first hop of the disk -> CPU -> GPU transfer chain a spilled
        expert pays.
        """
        return self.cost.disk_transfer_time(self.routed_shape)

    def shared_compute(self, device: Device, first_task: bool = False) -> float:
        """Seconds for the fused shared-experts block on ``device``.

        Zero when the model has no shared experts.
        """
        if self.num_shared == 0 or self.shared_shape is None:
            return 0.0
        if device == Device.GPU:
            single = self.cost.gpu_expert_time(self.shared_shape, self.n_tokens)
            return self.num_shared * single
        first = self.cost.cpu_expert_time(
            self.shared_shape, self.n_tokens, first_task=first_task
        )
        rest = self.cost.cpu_expert_time(self.shared_shape, self.n_tokens)
        return first + (self.num_shared - 1) * rest
