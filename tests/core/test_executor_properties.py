"""Property-based tests: executed timelines honour all dependencies.

The clock's timelines are the record of what ran: every positive-duration
reservation is one interval labelled ``xfer|gpu|cpu|disk L{layer} E{expert}``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid_scheduler import HybridScheduler
from repro.core.tasks import (
    SHARED_BLOCK,
    ComputeTask,
    Device,
    ExecutionPlan,
    LayerCostOracle,
    TransferTask,
)
from repro.core.executor import execute_plan
from repro.hardware.simulator import ThreeResourceClock
from repro.models.config import ExpertShape, MoEModelConfig


class _Cost:
    def __init__(self, gpu, cpu, transfer, disk=1.0):
        self.gpu, self.cpu, self.transfer_s, self.disk_s = gpu, cpu, transfer, disk

    def expert_bytes(self, shape):
        return 1.0

    def gpu_expert_time(self, shape, tokens):
        return self.gpu if tokens else 0.0

    def cpu_expert_time(self, shape, tokens, first_task=False):
        return self.cpu * tokens if tokens else 0.0

    def transfer_time(self, shape):
        return self.transfer_s

    def disk_transfer_time(self, shape):
        return self.disk_s

    def attention_time(self, d_model, tokens, device="gpu"):
        return 0.1


def _setup(gpu, cpu, transfer, disk=1.0):
    config = MoEModelConfig(
        name="prop",
        num_layers=1,
        num_shared_experts=1,
        num_routed_experts=16,
        num_activated_experts=2,
        routed_expert_shape=ExpertShape(8, 8),
        shared_expert_shape=ExpertShape(8, 8),
    )
    cost = _Cost(gpu, cpu, transfer, disk)

    def factory(n):
        return LayerCostOracle.for_model(cost, config, n)

    return HybridScheduler(factory), factory


def _rows(timeline):
    """``(kind, layer, expert, interval)`` per row of one timeline."""
    rows = []
    for interval in timeline.intervals:
        kind, layer, expert = interval.label.split()
        rows.append((kind, int(layer[1:]), int(expert[1:]), interval))
    return rows


@given(
    loads=st.dictionaries(st.integers(0, 15), st.integers(1, 20), min_size=1, max_size=10),
    cached_mask=st.sets(st.integers(0, 15), max_size=8),
    gpu=st.floats(0.1, 3.0),
    cpu=st.floats(0.1, 3.0),
    transfer=st.floats(0.1, 5.0),
    start=st.floats(0.0, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_executed_schedule_respects_all_dependencies(
    loads, cached_mask, gpu, cpu, transfer, start
):
    """For any scheduler-produced plan and start time:

    - no two tasks overlap on a serial resource;
    - each transferred expert's GPU compute starts at/after its transfer;
    - nothing starts before the layer's start time;
    - the layer result's makespan matches the timeline frontier.
    """
    scheduler, factory = _setup(gpu, cpu, transfer)
    activated = sorted(loads.items())
    cached = cached_mask & set(loads)
    plan = scheduler.plan(0, activated, cached, n_tokens=4)
    clock = ThreeResourceClock()
    result = execute_plan(plan, clock, factory(4), start_time=start)

    clock.validate()
    for timeline in (clock.gpu, clock.cpu, clock.pcie):
        for interval in timeline.intervals:
            assert interval.start >= start - 1e-9

    transfer_finish = {
        (layer, expert): row.finish for _, layer, expert, row in _rows(clock.pcie)
    }
    for _, layer, expert, row in _rows(clock.gpu):
        if (layer, expert) in transfer_finish:
            assert row.start >= transfer_finish[layer, expert] - 1e-9

    compute_finishes = [i.finish for t in (clock.gpu, clock.cpu) for i in t.intervals]
    if compute_finishes:
        assert result.compute_end == max(compute_finishes)


@given(
    loads=st.dictionaries(st.integers(0, 15), st.integers(1, 20), min_size=1, max_size=10),
    gpu=st.floats(0.1, 3.0),
    cpu=st.floats(0.1, 3.0),
    transfer=st.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_planner_estimate_matches_execution_on_idle_clock(loads, gpu, cpu, transfer):
    """When planner and executor share one cost model and the clock is
    idle, the executed makespan equals the simulated estimate — the
    schedule simulation *is* the execution model."""
    scheduler, factory = _setup(gpu, cpu, transfer)
    activated = sorted(loads.items())
    plan = scheduler.plan(0, activated, set(), n_tokens=4)
    clock = ThreeResourceClock()
    result = execute_plan(plan, clock, factory(4), start_time=0.0)
    assert abs(result.makespan - plan.estimated_makespan) < 1e-9


@st.composite
def _random_plans(draw):
    """A valid plan of random shape: each expert on the GPU (cached,
    prefetched or moved by the plan) or the CPU, zero loads allowed,
    the shared block anywhere or nowhere, tasks in random order."""
    experts = draw(st.lists(st.integers(0, 15), unique=True, max_size=8))
    gpu, cpu, transfers, arrivals = [], [], [], {}
    for expert in experts:
        load = draw(st.integers(0, 5))
        where = draw(st.sampled_from(("cached", "prefetched", "moved", "cpu")))
        if where == "cpu":
            cpu.append(ComputeTask(0, expert, load, Device.CPU))
            continue
        if where == "moved":
            transfers.append(TransferTask(0, expert, load))
        elif where == "prefetched":
            arrivals[(0, expert)] = draw(st.floats(0.0, 20.0))
        gpu.append(ComputeTask(0, expert, load, Device.GPU, after_transfer=where == "moved"))
    shared = draw(st.sampled_from((None, Device.GPU, Device.CPU)))
    if shared is not None:
        (gpu if shared == Device.GPU else cpu).append(
            ComputeTask(0, SHARED_BLOCK, 4, shared)
        )
    plan = ExecutionPlan(
        layer=0,
        n_tokens=4,
        gpu_tasks=draw(st.permutations(gpu)),
        cpu_tasks=draw(st.permutations(cpu)),
        transfers=draw(st.permutations(transfers)),
    )
    spilled = draw(st.sets(st.sampled_from(experts))) if experts else set()
    return plan, arrivals, frozenset(spilled)


@given(
    case=_random_plans(),
    gpu=st.sampled_from((0.0, 0.5, 2.0)),
    cpu=st.sampled_from((0.0, 0.25, 1.5)),
    transfer=st.floats(0.1, 5.0),
    disk=st.floats(0.1, 5.0),
    start=st.floats(0.0, 10.0),
)
@settings(max_examples=150, deadline=None)
def test_every_task_is_one_labelled_row_in_plan_order(
    case, gpu, cpu, transfer, disk, start
):
    """Each positive-duration task of a plan is exactly one row on its
    device's timeline, in plan order, under its label; zero-duration
    tasks leave no row. ``compute_end`` is the latest GPU/CPU finish
    (never earlier, and equal when every compute task takes time)."""
    plan, arrivals, spilled = case
    _, factory = _setup(gpu, cpu, transfer, disk)
    oracle = factory(plan.n_tokens)
    clock = ThreeResourceClock(disk=True)
    clock.landing.update({(key, "gpu"): ready for key, ready in arrivals.items()})
    result = execute_plan(plan, clock, oracle, start_time=start, spilled=spilled)
    clock.validate()
    assert not clock.audit_copies()

    def duration(task):
        if task.is_shared:
            return oracle.shared_compute(task.device)
        if task.device == Device.GPU:
            return oracle.gpu_compute(task.load)
        return oracle.cpu_compute(task.load)

    def labels(kind, tasks):
        return [f"{kind} L{t.layer} E{t.expert}" for t in tasks]

    staged = [t for t in plan.transfers if t.expert in spilled] + [
        t for t in plan.cpu_tasks if not t.is_shared and t.expert in spilled
    ]
    expected = {
        clock.pcie: labels("xfer", plan.transfers),
        clock.disk: labels("disk", staged),
        clock.gpu: labels("gpu", [t for t in plan.gpu_tasks if duration(t) > 0]),
        clock.cpu: labels("cpu", [t for t in plan.cpu_tasks if duration(t) > 0]),
    }
    for timeline, want in expected.items():
        assert [i.label for i in timeline.intervals] == want, timeline.name
    for row in clock.gpu.intervals:
        kind, layer, expert = row.label.split()
        landed = clock.landing.get(((int(layer[1:]), int(expert[1:])), "gpu"), 0.0)
        assert row.start >= landed

    finishes = [i.finish for t in (clock.gpu, clock.cpu) for i in t.intervals]
    latest = max(finishes, default=start)
    if all(duration(t) > 0 for t in plan.gpu_tasks + plan.cpu_tasks):
        assert result.compute_end == latest
    else:
        assert result.compute_end >= latest
    assert result.transfer_end == max(
        (i.finish for i in clock.pcie.intervals), default=start
    )
