"""Total-order determinism of the planner (reference comparability).

Equality with the reference planner (``tests/reference_planner.py``)
rests on every ordering decision in the scheduler being a *total*
order — any tie broken by expert id so no two distinct inputs compare
equal:

- ``by_load_desc``: ``(-load, expert)``;
- CPU queue: ``(load, expert)``;
- ``arrivals.sort``: ``(time, -load, expert)`` (expert unique);
- GPU-pool insertion: load desc, then expert asc;
- steal candidate: ``min`` by ``(load, expert)``;
- allocation argmin: strict ``1e-15`` improvement, ties keep the
  earlier (fewer-transfer) candidate of the ascending count order;
- prefetch decisions: ``(-gain, distance, layer, expert)``.

These tests enforce the observable consequence: the planner is a pure
function of the *set* of inputs — invariant to iteration/presentation
order and stable across repeated runs — even under adversarial
all-equal-load inputs where every comparator falls through to the id
tie-break.
"""

import random

from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.tasks import LayerCostOracle
from repro.models.config import ExpertShape, MoEModelConfig
from repro.rng import derive_rng
from tests.reference_planner import ReferencePlanner

#: The production planner and the oracle: every property holds on both.
_PLANNERS = (HybridScheduler, ReferencePlanner)

_MODEL = MoEModelConfig(
    name="det",
    num_layers=1,
    num_shared_experts=1,
    num_routed_experts=32,
    num_activated_experts=4,
    routed_expert_shape=ExpertShape(8, 8),
    shared_expert_shape=ExpertShape(8, 8),
)


class _Cost:
    def __init__(self, gpu=2.0, cpu=1.5, transfer=3.0):
        self.gpu, self.cpu, self.transfer_s = gpu, cpu, transfer

    def expert_bytes(self, shape):
        return 1.0

    def gpu_expert_time(self, shape, tokens):
        return self.gpu if tokens else 0.0

    def cpu_expert_time(self, shape, tokens, first_task=False):
        return self.cpu * tokens if tokens else 0.0

    def transfer_time(self, shape):
        return self.transfer_s

    def attention_time(self, d_model, tokens, device="gpu"):
        return 0.1


def _scheduler(planner, steal=True, **cost_kwargs):
    cost = _Cost(**cost_kwargs)

    def factory(n_tokens):
        return LayerCostOracle.for_model(cost, _MODEL, n_tokens)

    return planner(
        factory, SchedulerConfig(plan_cache_size=0, allow_cpu_steal=steal)
    )


def test_plan_invariant_to_presentation_order():
    """Shuffling the activated list, the cached-set iteration order and
    the inflight dict insertion order never changes the plan."""
    rng = derive_rng(0, "determinism", "shuffle")
    pyrng = random.Random(0)
    for planner in _PLANNERS:
        scheduler = _scheduler(planner)
        for _ in range(40):
            n = int(rng.integers(2, 14))
            experts = [int(e) for e in rng.choice(32, size=n, replace=False)]
            activated = [(e, int(rng.integers(1, 9))) for e in experts]
            cached_list = [e for e in experts if rng.random() < 0.5]
            inflight_items = [
                (e, float(rng.uniform(0, 5))) for e in cached_list if rng.random() < 0.5
            ]
            canonical = scheduler.plan(
                0,
                sorted(activated),
                set(cached_list),
                n_tokens=1,
                inflight=dict(inflight_items),
            )
            for _ in range(3):
                shuffled = list(activated)
                pyrng.shuffle(shuffled)
                pyrng.shuffle(cached_list)
                pyrng.shuffle(inflight_items)
                assert (
                    scheduler.plan(
                        0,
                        shuffled,
                        set(cached_list),
                        n_tokens=1,
                        inflight=dict(inflight_items),
                    )
                    == canonical
                )


def test_all_equal_loads_hit_every_id_tie_break():
    """With every load identical, every comparator falls through to the
    expert-id tie-break; the result must still be one deterministic
    plan, identical across planners and repetitions."""
    for planner in _PLANNERS:
        scheduler = _scheduler(planner)
        activated = [(e, 4) for e in range(10)]
        cached = {1, 3, 5, 7, 9}
        plans = [
            scheduler.plan(0, list(reversed(activated)) if i % 2 else activated,
                           set(cached), n_tokens=2)
            for i in range(4)
        ]
        assert all(p == plans[0] for p in plans)
        # CPU queue of equal load is ordered by ascending expert id
        # (stolen experts, if any, append after the queue).
        n_queue = len(plans[0].cpu_tasks) - len(plans[0].metadata["stolen"])
        cpu_queue = [t.expert for t in plans[0].cpu_tasks[:n_queue]]
        assert cpu_queue == sorted(cpu_queue)

    fast, ref = (
        _scheduler(planner).plan(0, [(e, 4) for e in range(10)], {1, 3, 5, 7, 9}, 2)
        for planner in _PLANNERS
    )
    assert fast == ref


def test_equal_arrival_instants_are_ordered_by_load_then_id():
    """Two inflight experts becoming ready at the same instant join the
    GPU queue high-load first, then lowest id — deterministically."""
    for planner in _PLANNERS:
        scheduler = _scheduler(planner, steal=False)
        plan = scheduler.plan(
            0,
            [(2, 5), (4, 5), (6, 9)],
            {2, 4, 6},
            n_tokens=1,
            inflight={2: 1.0, 4: 1.0, 6: 1.0},
        )
        experts = [t.expert for t in plan.gpu_tasks if not t.is_shared]
        assert experts == [6, 2, 4]


def test_makespan_tie_prefers_fewer_transfers():
    """When several transfer counts tie exactly, both planners keep
    the smallest k (fewest transfers)."""
    # Free transfers, unit costs, 4 unit loads: k=1 and k=2 both yield
    # an exact 3.0 makespan — the argmin must keep k=1 on both.
    fast, ref = (
        _scheduler(planner, gpu=1.0, cpu=1.0, transfer=0.0) for planner in _PLANNERS
    )
    activated = [(e, 1) for e in range(4)]
    plan_fast = fast.plan(0, activated, set(), n_tokens=1)
    plan_ref = ref.plan(0, activated, set(), n_tokens=1)
    assert plan_fast == plan_ref
    assert plan_fast.estimated_makespan == 3.0
    assert plan_fast.metadata["transfer_count"] == 1
