"""Hybrid scheduler unit tests, including the paper's Fig. 5 example."""

import pytest

from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.tasks import SHARED_BLOCK
from repro.errors import SchedulingError
from tests.reference_planner import ReferencePlanner

# The Fig. 5 scenario: A=0:1, B=1:1, C=2:3 uncached; D=3:4, E=4:1 cached.
FIG5_ACTIVATED = [(0, 1), (1, 1), (2, 3), (3, 4), (4, 1)]
FIG5_CACHED = {3, 4}


#: Four unit loads, expert 0 cached: the activation of the NaN / inf
#: validation tests.
NAN_ACTIVATED = [(0, 1), (1, 1), (2, 1), (3, 1)]
#: Every planner entry point on that activation. The first two take the
#: backlogs and exist on the reference planner as well; the quick ones
#: take ``spilled`` / ``disk_fetch_s`` only.
_ENTRY_POINTS = {
    "plan": lambda s, **kw: s.plan(0, NAN_ACTIVATED, {0}, 1, **kw),
    "simulate_makespan": lambda s, **kw: s.simulate_makespan(NAN_ACTIVATED, {0}, 1, **kw),
    "quick_makespan_lower_bound": lambda s, **kw: s.quick_makespan_lower_bound(
        NAN_ACTIVATED, {0}, 1, **kw
    ),
    "quick_makespan_lower_bounds": lambda s, **kw: s.quick_makespan_lower_bounds(
        NAN_ACTIVATED, {0}, 1, [1, 2], **kw
    ),
    "quick_screen": lambda s, **kw: s.quick_screen(NAN_ACTIVATED, {0}, 1, [1, 2], **kw),
    "quick_makespans_with": lambda s, **kw: s.quick_makespans_with(
        NAN_ACTIVATED, {0}, 1, [1, 2], **kw
    ),
    "screen_prediction_batch": lambda s, spilled, disk_fetch_s: s.screen_prediction_batch(
        [(NAN_ACTIVATED, {0}, 1, [1, 2], spilled)], disk_fetch_s=disk_fetch_s
    ),
}
_FULL_ENTRY_POINTS = ("plan", "simulate_makespan")


@pytest.fixture
def scheduler(toy_oracle_factory) -> HybridScheduler:
    return HybridScheduler(toy_oracle_factory)


class TestFig5Example:
    """The worked example of paper §IV-B / Fig. 5."""

    def test_transfers_high_load_uncached(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        assert plan.transferred_experts() == [2]

    def test_cpu_computes_low_load_then_steals_cached(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        assert [t.expert for t in plan.cpu_tasks] == [0, 1, 4]
        assert plan.metadata["stolen"] == [4]

    def test_gpu_runs_shared_then_high_load(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        experts = [t.expert for t in plan.gpu_tasks]
        assert experts[0] == SHARED_BLOCK
        assert experts[1] == 3  # D, the high-load cached expert
        assert experts[2] == 2  # C, after its transfer lands

    def test_plan_validates(self, scheduler):
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        plan.validate(dict(FIG5_ACTIVATED), FIG5_CACHED)

    def test_makespan_beats_no_transfer(self, scheduler, toy_oracle_factory):
        chosen = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, 1).estimated_makespan
        no_transfer = ReferencePlanner(
            toy_oracle_factory, SchedulerConfig(allow_cpu_steal=True)
        )._simulate(
            dict(FIG5_ACTIVATED), FIG5_CACHED, toy_oracle_factory(1), 0, 0.0, True
        )
        assert chosen < no_transfer.makespan


class TestDegenerateInputs:
    def test_all_cached(self, scheduler):
        plan = scheduler.plan(0, [(0, 2), (1, 1)], {0, 1}, n_tokens=1)
        assert plan.transfers == []
        plan.validate({0: 2, 1: 1}, {0, 1})

    def test_none_cached(self, scheduler):
        plan = scheduler.plan(0, [(0, 2), (1, 1)], set(), n_tokens=1)
        plan.validate({0: 2, 1: 1}, set())

    def test_single_expert(self, scheduler):
        plan = scheduler.plan(0, [(5, 4)], set(), n_tokens=1)
        assert plan.computed_experts() == [5]

    def test_duplicate_activation_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 1), (0, 2)], set(), n_tokens=1)

    def test_zero_load_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 0)], set(), n_tokens=1)

    def test_negative_backlog_rejected(self, scheduler):
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 1)], set(), n_tokens=1, pcie_backlog=-1.0)

    @pytest.mark.parametrize(
        "method, bad",
        [
            (method, bad)
            for method in _ENTRY_POINTS
            for bad in ("pcie_backlog", "cpu_backlog", "disk_fetch_s")
            if method in _FULL_ENTRY_POINTS or bad == "disk_fetch_s"
        ],
    )
    def test_nan_rejected_before_any_timeline(self, toy_oracle_factory, method, bad):
        """NaN passes an ``x < 0`` test; it must fail validation with
        the one-line ``SchedulingError`` on every entry point (on the
        reference planner too) and leave nothing in the memo."""
        kwargs = {bad: float("nan")}
        if bad == "disk_fetch_s":
            kwargs["spilled"] = {2}
        planners = [HybridScheduler(toy_oracle_factory)]
        if method in _FULL_ENTRY_POINTS:
            planners.append(ReferencePlanner(toy_oracle_factory))
        for planner in planners:
            with pytest.raises(SchedulingError, match=f"{bad} must be non-negative"):
                _ENTRY_POINTS[method](planner, **kwargs)
            assert planner.cache_info()["size"] == 0

    def test_dead_link_plans_zero_transfers(self, scheduler):
        """``inf`` stays a legal backlog: nothing rides a PCIe link
        that never frees up. (Not compared with the reference planner,
        whose event loop uses ``inf`` as its no-action sentinel and
        drops experts that arrive at it.)"""
        plan = scheduler.plan(0, NAN_ACTIVATED, {0}, 1, pcie_backlog=float("inf"))
        plan.validate(dict(NAN_ACTIVATED), {0})
        assert plan.transfers == []
        assert [t.expert for t in plan.cpu_tasks][:3] == [1, 2, 3]
        assert plan.estimated_makespan < float("inf")


class TestPriorityRules:
    def test_gpu_descending_load_order(self, scheduler):
        plan = scheduler.plan(
            0, [(0, 1), (1, 5), (2, 3)], {0, 1, 2}, n_tokens=1
        )
        routed = [t for t in plan.gpu_tasks if not t.is_shared]
        loads = [t.load for t in routed]
        # CPU stealing may take low-load tasks, but GPU order must stay desc.
        assert loads == sorted(loads, reverse=True)

    def test_cpu_ascending_load_order(self, toy_oracle_factory):
        scheduler = HybridScheduler(
            toy_oracle_factory, SchedulerConfig(allow_cpu_steal=False)
        )
        plan = scheduler.plan(0, [(0, 3), (1, 1), (2, 2)], set(), n_tokens=1)
        cpu_loads = [t.load for t in plan.cpu_tasks]
        assert cpu_loads == sorted(cpu_loads)

    def test_transfer_descending_load(self, scheduler):
        plan = scheduler.plan(
            0, [(0, 1), (1, 8), (2, 4), (3, 9)], set(), n_tokens=1
        )
        loads = [t.load for t in plan.transfers]
        assert loads == sorted(loads, reverse=True)

    def test_steal_disabled_respected(self, toy_oracle_factory):
        scheduler = HybridScheduler(
            toy_oracle_factory, SchedulerConfig(allow_cpu_steal=False)
        )
        plan = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, n_tokens=1)
        assert plan.metadata["stolen"] == []

    def test_pcie_backlog_delays_arrivals(self, scheduler):
        fast = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, 1, pcie_backlog=0.0)
        slow = scheduler.plan(0, FIG5_ACTIVATED, FIG5_CACHED, 1, pcie_backlog=10.0)
        assert slow.estimated_makespan >= fast.estimated_makespan

    def test_inflight_expert_delays_gpu(self, scheduler):
        base = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1)
        delayed = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1, inflight={0: 5.0})
        assert delayed.estimated_makespan > base.estimated_makespan

    def test_inflight_of_unactivated_ignored(self, scheduler):
        base = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1)
        same = scheduler.plan(0, [(0, 4)], {0}, n_tokens=1, inflight={7: 99.0})
        assert same.estimated_makespan == base.estimated_makespan


class TestSearch:
    def test_quick_mode_subset_of_full(self, toy_oracle_factory):
        full = HybridScheduler(toy_oracle_factory)
        activated = [(e, e + 1) for e in range(6)]
        best_full = full.simulate_makespan(activated, {0, 1}, 1)
        best_quick = full.simulate_makespan(activated, {0, 1}, 1, quick=True)
        assert best_full <= best_quick + 1e-12

    def test_invalid_config(self):
        with pytest.raises(SchedulingError):
            SchedulerConfig(plan_cache_size=-1)

    def test_search_beats_or_matches_extremes(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(e, (e * 7) % 5 + 1) for e in range(8)]
        cached = {1, 4}
        full = scheduler.simulate_makespan(activated, cached, 1)
        quick = scheduler.simulate_makespan(activated, cached, 1, quick=True)
        assert full <= quick + 1e-12


    def test_screen_batch_equals_per_call_screen(self, scheduler):
        """The batched screen must be float-equal to the scalar calls."""
        items = [
            ([(0, 1), (1, 1)], {0}, 1, [2, 3], frozenset()),
            ([(2, 1), (3, 1)], set(), 1, [0], frozenset({3})),
            ([(1, 4)], {1, 2}, 4, [], frozenset()),
        ]
        batched = scheduler.screen_prediction_batch(items, disk_fetch_s=0.5)
        for item, got in zip(items, batched):
            activated, cached, n_tokens, candidates, spilled = item
            want = scheduler.quick_screen(
                activated, cached, n_tokens, candidates,
                spilled=spilled, disk_fetch_s=0.5,
            )
            assert got == want
