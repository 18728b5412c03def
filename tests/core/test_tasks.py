"""ExecutionPlan validation and the layer cost oracle."""

import pytest

from repro.core.tasks import (
    SHARED_BLOCK,
    ComputeTask,
    Device,
    ExecutionPlan,
    LayerCostOracle,
    TransferTask,
)
from repro.errors import SchedulingError


def _plan(gpu=(), cpu=(), transfers=(), layer=0, n_tokens=4):
    return ExecutionPlan(
        layer=layer,
        n_tokens=n_tokens,
        gpu_tasks=list(gpu),
        cpu_tasks=list(cpu),
        transfers=list(transfers),
    )


def _gpu(expert, load, after_transfer=False):
    return ComputeTask(0, expert, load, Device.GPU, after_transfer=after_transfer)


def _cpu(expert, load):
    return ComputeTask(0, expert, load, Device.CPU)


class TestTaskValidation:
    def test_negative_load_rejected(self):
        with pytest.raises(SchedulingError):
            ComputeTask(0, 1, -1, Device.GPU)

    def test_after_transfer_only_on_gpu(self):
        with pytest.raises(SchedulingError):
            ComputeTask(0, 1, 1, Device.CPU, after_transfer=True)

    def test_transfer_of_shared_rejected(self):
        with pytest.raises(SchedulingError):
            TransferTask(0, SHARED_BLOCK, 1)


class TestPlanValidation:
    def test_valid_plan_passes(self):
        plan = _plan(
            gpu=[_gpu(0, 3), _gpu(1, 2, after_transfer=True)],
            cpu=[_cpu(2, 1)],
            transfers=[TransferTask(0, 1, 2)],
        )
        plan.validate({0: 3, 1: 2, 2: 1}, {0})

    def test_missing_expert_detected(self):
        plan = _plan(gpu=[_gpu(0, 3)])
        with pytest.raises(SchedulingError, match="coverage"):
            plan.validate({0: 3, 1: 1}, {0, 1})

    def test_duplicate_compute_detected(self):
        plan = _plan(gpu=[_gpu(0, 3)], cpu=[_cpu(0, 3)])
        with pytest.raises(SchedulingError, match="more than once"):
            plan.validate({0: 3}, {0})

    def test_load_mismatch_detected(self):
        plan = _plan(gpu=[_gpu(0, 5)])
        with pytest.raises(SchedulingError, match="load"):
            plan.validate({0: 3}, {0})

    def test_gpu_without_weights_detected(self):
        plan = _plan(gpu=[_gpu(1, 2)])
        with pytest.raises(SchedulingError, match="without cached weights"):
            plan.validate({1: 2}, set())

    def test_transfer_of_cached_detected(self):
        plan = _plan(
            gpu=[_gpu(0, 2, after_transfer=True)], transfers=[TransferTask(0, 0, 2)]
        )
        with pytest.raises(SchedulingError, match="already cached"):
            plan.validate({0: 2}, {0})

    def test_duplicate_transfers_detected(self):
        plan = _plan(
            gpu=[_gpu(1, 2, after_transfer=True)],
            transfers=[TransferTask(0, 1, 2), TransferTask(0, 1, 2)],
        )
        with pytest.raises(SchedulingError, match="duplicate transfers"):
            plan.validate({1: 2}, set())

    def test_shared_tasks_ignored_by_coverage(self):
        plan = _plan(gpu=[ComputeTask(0, SHARED_BLOCK, 4, Device.GPU), _gpu(0, 2)])
        plan.validate({0: 2}, {0})


class TestLayerCostOracle:
    def test_shared_compute_zero_without_shared(self, toy_cost, tiny_config):
        from dataclasses import replace

        config = replace(
            tiny_config, num_shared_experts=0, shared_expert_shape=None
        )
        oracle = LayerCostOracle.for_model(toy_cost, config, 4)
        assert oracle.shared_compute(Device.GPU) == 0.0

    def test_shared_compute_scales_with_count(self, toy_cost, tiny_config):
        from dataclasses import replace

        single = LayerCostOracle.for_model(toy_cost, tiny_config, 4)
        double = LayerCostOracle.for_model(
            toy_cost, replace(tiny_config, num_shared_experts=2), 4
        )
        assert double.shared_compute(Device.GPU) == pytest.approx(
            2 * single.shared_compute(Device.GPU)
        )

    def test_cpu_first_task_flag(self, tiny_config):
        from tests.conftest import ToyCostModel

        oracle = LayerCostOracle.for_model(ToyCostModel(cpu_warmup=1.0), tiny_config, 4)
        assert oracle.cpu_compute(2, first_task=True) == pytest.approx(
            oracle.cpu_compute(2) + 1.0
        )
