"""Plan executor: dependency and timeline semantics.

The clock's timelines are the record of what ran: each reservation is
one interval labelled ``xfer|gpu|cpu|disk L{layer} E{expert}``.
"""

import pytest

from repro.core.executor import execute_plan
from repro.core.hybrid_scheduler import HybridScheduler
from repro.core.tasks import (
    SHARED_BLOCK,
    ComputeTask,
    Device,
    ExecutionPlan,
    TransferTask,
)
from repro.errors import SchedulingError
from repro.hardware.simulator import ThreeResourceClock


@pytest.fixture
def oracle(toy_oracle_factory):
    return toy_oracle_factory(1)


class TestExecutePlan:
    def test_gpu_task_waits_for_transfer(self, oracle):
        clock = ThreeResourceClock()
        plan = ExecutionPlan(
            layer=0,
            n_tokens=1,
            gpu_tasks=[ComputeTask(0, 1, 2, Device.GPU, after_transfer=True)],
            transfers=[TransferTask(0, 1, 2)],
        )
        execute_plan(plan, clock, oracle, start_time=0.0)
        (gpu,) = clock.gpu.intervals
        (pcie,) = clock.pcie.intervals
        assert (gpu.label, pcie.label) == ("gpu L0 E1", "xfer L0 E1")
        assert gpu.start == pytest.approx(pcie.finish)

    def test_cpu_first_task_warmup(self, tiny_config):
        from tests.conftest import ToyCostModel
        from repro.core.tasks import LayerCostOracle

        oracle = LayerCostOracle.for_model(ToyCostModel(cpu_warmup=1.0), tiny_config, 1)
        clock = ThreeResourceClock()
        plan = ExecutionPlan(
            layer=0,
            n_tokens=1,
            cpu_tasks=[ComputeTask(0, 0, 2, Device.CPU), ComputeTask(0, 1, 2, Device.CPU)],
        )
        execute_plan(plan, clock, oracle, start_time=0.0)
        first, second = clock.cpu.intervals
        assert first.duration == pytest.approx(second.duration + 1.0)

    def test_serial_order_preserved(self, oracle):
        clock = ThreeResourceClock()
        plan = ExecutionPlan(
            layer=0,
            n_tokens=1,
            gpu_tasks=[
                ComputeTask(0, 0, 3, Device.GPU),
                ComputeTask(0, 1, 1, Device.GPU),
            ],
        )
        execute_plan(plan, clock, oracle, start_time=0.0)
        first, second = clock.gpu.intervals
        assert (first.label, second.label) == ("gpu L0 E0", "gpu L0 E1")
        assert second.start >= first.finish

    def test_external_arrival_gates_gpu(self, oracle):
        clock = ThreeResourceClock()
        plan = ExecutionPlan(
            layer=0,
            n_tokens=1,
            gpu_tasks=[ComputeTask(0, 5, 2, Device.GPU)],
        )
        clock.landing[(0, 5), "gpu"] = 7.0
        execute_plan(plan, clock, oracle, start_time=0.0)
        assert clock.gpu.intervals[0].start == pytest.approx(7.0)

    def test_start_time_respected_everywhere(self, oracle):
        clock = ThreeResourceClock()
        plan = ExecutionPlan(
            layer=0,
            n_tokens=1,
            gpu_tasks=[ComputeTask(0, 0, 1, Device.GPU)],
            cpu_tasks=[ComputeTask(0, 1, 1, Device.CPU)],
            transfers=[TransferTask(0, 2, 1)],
        )
        execute_plan(plan, clock, oracle, start_time=4.0)
        rows = [i for t in (clock.gpu, clock.cpu, clock.pcie) for i in t.intervals]
        assert len(rows) == 3
        for row in rows:
            assert row.start >= 4.0

    def test_shared_block_on_cpu(self, oracle):
        clock = ThreeResourceClock()
        plan = ExecutionPlan(
            layer=0,
            n_tokens=1,
            cpu_tasks=[ComputeTask(0, SHARED_BLOCK, 1, Device.CPU)],
        )
        execute_plan(plan, clock, oracle, start_time=0.0)
        assert [i.label for i in clock.cpu.intervals] == [f"cpu L0 E{SHARED_BLOCK}"]

    def test_negative_start_rejected(self, oracle):
        with pytest.raises(SchedulingError):
            execute_plan(
                ExecutionPlan(layer=0, n_tokens=1),
                ThreeResourceClock(),
                oracle,
                start_time=-1.0,
            )

    @pytest.mark.parametrize("on_cpu", [False, True])
    def test_spilled_expert_waits_on_inflight_staging(self, oracle, on_cpu):
        """An expert whose disk read is already in flight waits for that
        read and reserves no second one; a spilled one reads, and its
        landing joins the map."""
        clock = ThreeResourceClock(disk=True)
        if on_cpu:
            plan = ExecutionPlan(
                layer=2,
                n_tokens=1,
                cpu_tasks=[ComputeTask(2, 4, 1, Device.CPU), ComputeTask(2, 6, 1, Device.CPU)],
            )
            timeline, kind = clock.cpu, "cpu"
        else:
            plan = ExecutionPlan(
                layer=2,
                n_tokens=1,
                gpu_tasks=[
                    ComputeTask(2, 4, 1, Device.GPU, after_transfer=True),
                    ComputeTask(2, 6, 1, Device.GPU, after_transfer=True),
                ],
                transfers=[TransferTask(2, 4, 1), TransferTask(2, 6, 1)],
            )
            timeline, kind = clock.pcie, "xfer"
        clock.landing[(2, 4), "dram"] = 9.0
        execute_plan(plan, clock, oracle, start_time=1.0, spilled={6})
        (read,) = clock.disk.intervals
        assert read.label == "disk L2 E6"
        rows = {row.label: row for row in timeline.intervals}
        assert rows[f"{kind} L2 E4"].start >= 9.0
        assert rows[f"{kind} L2 E6"].start >= read.finish
        assert clock.landing[(2, 4), "dram"] == 9.0
        assert clock.landing[(2, 6), "dram"] == read.finish
        assert not clock.audit_copies()

    def test_dram_resident_expert_waits_on_its_copy(self, oracle):
        """An expert whose copy into DRAM is still in flight (a
        demotion) waits for it, though it is not spilled; others don't."""
        clock = ThreeResourceClock(disk=True)
        plan = ExecutionPlan(
            layer=2,
            n_tokens=1,
            gpu_tasks=[ComputeTask(2, 4, 1, Device.GPU, after_transfer=True)],
            transfers=[TransferTask(2, 4, 1)],
            cpu_tasks=[ComputeTask(2, 6, 1, Device.CPU), ComputeTask(2, 5, 1, Device.CPU)],
        )
        clock.landing.update({((2, 4), "dram"): 9.0, ((2, 5), "dram"): 7.0})
        execute_plan(plan, clock, oracle, start_time=1.0, spilled=set())
        assert not clock.disk.intervals
        rows = {row.label: row for row in clock.pcie.intervals + clock.cpu.intervals}
        assert rows["xfer L2 E4"].start == 9.0
        assert rows["cpu L2 E5"].start == 7.0
        assert rows["cpu L2 E6"].start < 7.0

    def test_makespan_accounting(self, oracle):
        clock = ThreeResourceClock()
        plan = ExecutionPlan(
            layer=0,
            n_tokens=1,
            gpu_tasks=[ComputeTask(0, 0, 1, Device.GPU)],
        )
        result = execute_plan(plan, clock, oracle, start_time=2.0)
        assert result.makespan == pytest.approx(2.0)  # toy GPU time
        assert result.compute_end == pytest.approx(4.0)


class TestPlannerExecutorAgreement:
    def test_executed_makespan_matches_estimate_with_same_cost(
        self, toy_oracle_factory
    ):
        """With identical planner/executor cost models and an idle clock,
        executed duration equals the simulated makespan."""
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(0, 1), (1, 1), (2, 3), (3, 4), (4, 1)]
        cached = {3, 4}
        plan = scheduler.plan(0, activated, cached, n_tokens=1)
        clock = ThreeResourceClock()
        result = execute_plan(plan, clock, toy_oracle_factory(1), start_time=0.0)
        assert result.makespan == pytest.approx(plan.estimated_makespan)
