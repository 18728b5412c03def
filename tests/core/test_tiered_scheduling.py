"""Disk-aware scheduling: surcharges, planner==reference, executor chains."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import execute_plan
from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.prefetch import ImpactDrivenPrefetcher, PredictedLayer
from repro.core.tasks import LayerCostOracle
from repro.errors import SchedulingError
from repro.hardware.simulator import ThreeResourceClock
from repro.models.config import ExpertShape, MoEModelConfig
from tests.reference_planner import ReferencePlanner

DISK_FETCH = 4.0  # toy scale: > transfer (3.0), ~ a few CPU token units


def _property_oracle_factory():
    """Fixture-free oracle factory for the hypothesis properties."""
    from tests.conftest import ToyCostModel

    config = MoEModelConfig(
        name="tiered-prop",
        num_layers=1,
        num_shared_experts=1,
        num_routed_experts=8,
        num_activated_experts=2,
        routed_expert_shape=ExpertShape(256, 512),
        shared_expert_shape=ExpertShape(256, 512),
    )
    cost = ToyCostModel()

    def factory(n_tokens):
        return LayerCostOracle.for_model(cost, config, n_tokens)

    return factory


class TestPlannerSurcharges:
    def test_spilled_raises_makespan(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(0, 4), (1, 2), (2, 1)]
        base = scheduler.simulate_makespan(activated, {0}, n_tokens=4)
        spilled = scheduler.simulate_makespan(
            activated, {0}, n_tokens=4, spilled={1, 2}, disk_fetch_s=DISK_FETCH
        )
        assert spilled > base

    def test_cached_experts_never_pay_disk(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(0, 4), (1, 2)]
        base = scheduler.simulate_makespan(activated, {0, 1}, n_tokens=4)
        marked = scheduler.simulate_makespan(
            activated, {0, 1}, n_tokens=4, spilled={0, 1}, disk_fetch_s=DISK_FETCH
        )
        assert marked == base

    def test_zero_disk_fetch_is_identity(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(0, 4), (1, 2), (2, 1)]
        assert scheduler.simulate_makespan(
            activated, {0}, n_tokens=4, spilled={1, 2}, disk_fetch_s=0.0
        ) == scheduler.simulate_makespan(activated, {0}, n_tokens=4)

    def test_negative_disk_fetch_rejected(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        with pytest.raises(SchedulingError):
            scheduler.simulate_makespan(
                [(0, 1)], set(), n_tokens=1, spilled={0}, disk_fetch_s=-1.0
            )

    def test_plan_covers_spilled_experts(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(0, 4), (1, 2), (2, 1)]
        plan = scheduler.plan(
            layer=0,
            activated=activated,
            cached_experts={0},
            n_tokens=4,
            spilled={1, 2},
            disk_fetch_s=DISK_FETCH,
        )
        plan.validate(dict(activated), {0})
        assert sorted(plan.computed_experts()) == [0, 1, 2]

    def test_memo_distinguishes_spill_inputs(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(0, 4), (1, 2)]
        a = scheduler.simulate_makespan(activated, set(), n_tokens=4)
        b = scheduler.simulate_makespan(
            activated, set(), n_tokens=4, spilled={0, 1}, disk_fetch_s=DISK_FETCH
        )
        c = scheduler.simulate_makespan(
            activated, set(), n_tokens=4, spilled={0, 1}, disk_fetch_s=2 * DISK_FETCH
        )
        assert a < b < c

    def test_expensive_disk_shifts_allocation_to_cpu(self, toy_oracle_factory):
        """With spilled transfers paying a huge disk hop, the planner
        keeps spilled experts on the CPU (one disk read, no chain)."""
        scheduler = HybridScheduler(toy_oracle_factory)
        activated = [(0, 8), (1, 8)]
        plan_cheap = scheduler.plan(
            layer=0, activated=activated, cached_experts=set(), n_tokens=8
        )
        plan_spill = scheduler.plan(
            layer=0,
            activated=activated,
            cached_experts=set(),
            n_tokens=8,
            spilled={0, 1},
            disk_fetch_s=100.0,
        )
        assert len(plan_spill.transfers) <= len(plan_cheap.transfers)


@st.composite
def spilled_layer_case(draw):
    n_experts = draw(st.integers(min_value=1, max_value=8))
    loads = draw(
        st.lists(
            st.integers(min_value=1, max_value=16),
            min_size=n_experts,
            max_size=n_experts,
        )
    )
    cached = draw(st.sets(st.integers(min_value=0, max_value=n_experts - 1)))
    spilled = draw(st.sets(st.integers(min_value=0, max_value=n_experts - 1)))
    disk_fetch = draw(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
    )
    backlog = draw(st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
    return list(enumerate(loads)), cached, spilled, disk_fetch, backlog


class TestFastPathEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(case=spilled_layer_case())
    def test_fast_matches_reference_with_spill(self, case):
        activated, cached, spilled, disk_fetch, backlog = case
        factory = _property_oracle_factory()
        fast = HybridScheduler(factory, SchedulerConfig(plan_cache_size=0))
        reference = ReferencePlanner(factory, SchedulerConfig(plan_cache_size=0))
        kwargs = dict(
            n_tokens=4,
            pcie_backlog=backlog,
            spilled=spilled,
            disk_fetch_s=disk_fetch,
        )
        assert fast.simulate_makespan(
            activated, cached, **kwargs
        ) == reference.simulate_makespan(activated, cached, **kwargs)
        assert fast.plan(0, activated, cached, **kwargs) == reference.plan(
            0, activated, cached, **kwargs
        )

    @settings(max_examples=60, deadline=None)
    @given(case=spilled_layer_case())
    def test_lower_bound_stays_below_quick(self, case):
        activated, cached, spilled, disk_fetch, _ = case
        scheduler = HybridScheduler(_property_oracle_factory())
        bound = scheduler.quick_makespan_lower_bound(
            activated, cached, n_tokens=4, spilled=spilled, disk_fetch_s=disk_fetch
        )
        quick = scheduler.simulate_makespan(
            activated,
            cached,
            n_tokens=4,
            quick=True,
            spilled=spilled,
            disk_fetch_s=disk_fetch,
        )
        assert bound <= quick + 1e-12


class TestExecutorDiskChains:
    def test_spilled_transfer_rides_disk_then_pcie(
        self, toy_oracle_factory
    ):
        scheduler = HybridScheduler(toy_oracle_factory)
        oracle = toy_oracle_factory(4)
        plan = scheduler.plan(
            layer=0,
            activated=[(0, 4), (1, 1)],
            cached_experts=set(),
            n_tokens=4,
            spilled={0, 1},
            disk_fetch_s=oracle.disk_fetch(),
        )
        clock = ThreeResourceClock(disk=True)
        execute_plan(plan, clock, oracle, start_time=0.0, spilled=frozenset({0, 1}))
        read_done = {
            i.label.replace("disk", ""): i.finish for i in clock.disk.intervals
        }
        assert read_done, "spilled experts must reserve disk reads"
        for kind, timeline in (("xfer", clock.pcie), ("cpu", clock.cpu)):
            for interval in timeline.intervals:
                expert = interval.label.replace(kind, "")
                if expert in read_done:
                    assert interval.start >= read_done[expert]
        clock.validate()

    def test_disk_reads_serialise_on_one_link(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        oracle = toy_oracle_factory(4)
        plan = scheduler.plan(
            layer=0,
            activated=[(0, 4), (1, 3), (2, 2)],
            cached_experts=set(),
            n_tokens=4,
            spilled={0, 1, 2},
            disk_fetch_s=DISK_FETCH,
        )
        clock = ThreeResourceClock(disk=True)
        execute_plan(plan, clock, oracle, 0.0, spilled=frozenset({0, 1, 2}))
        intervals = clock.disk.intervals
        for earlier, later in zip(intervals, intervals[1:]):
            assert later.start >= earlier.finish
        clock.validate()

    def test_spilled_without_disk_clock_raises(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        oracle = toy_oracle_factory(4)
        plan = scheduler.plan(
            layer=0, activated=[(0, 4)], cached_experts=set(), n_tokens=4
        )
        clock = ThreeResourceClock()
        with pytest.raises(SchedulingError):
            execute_plan(plan, clock, oracle, 0.0, spilled=frozenset({0}))

    def test_empty_spill_set_is_historic_execution(self, toy_oracle_factory):
        scheduler = HybridScheduler(toy_oracle_factory)
        oracle = toy_oracle_factory(4)
        plan = scheduler.plan(
            layer=0, activated=[(0, 4), (1, 1)], cached_experts={0}, n_tokens=4
        )
        with_disk = ThreeResourceClock(disk=True)
        without = ThreeResourceClock()
        r1 = execute_plan(plan, with_disk, oracle, 0.0, spilled=frozenset())
        r2 = execute_plan(plan, without, oracle, 0.0)
        assert r1 == r2
        for name in ("gpu", "cpu", "pcie"):
            timeline = getattr(with_disk, name)
            assert timeline.intervals == getattr(without, name).intervals
        assert with_disk.disk.intervals == []


class TestPrefetcherSpillAwareness:
    def _prefetcher(self, toy_oracle_factory, disk_fetch_s):
        scheduler = HybridScheduler(toy_oracle_factory)
        return ImpactDrivenPrefetcher(
            scheduler=scheduler,
            transfer_time_fn=lambda: 3.0,
            num_activated=2,
            lookahead=2,
            disk_fetch_s=disk_fetch_s,
        )

    def test_spilled_candidate_costs_disk_lead_time(self, toy_oracle_factory):
        import numpy as np

        scores = np.array([0.9, 0.6, 0.05, 0.05])
        plain = self._prefetcher(toy_oracle_factory, 0.0).evaluate_candidates(
            [
                PredictedLayer(
                    layer=1, scores=scores, n_tokens=4, cached_experts=frozenset()
                )
            ],
            current_layer=0,
        )
        spilled = self._prefetcher(toy_oracle_factory, DISK_FETCH).evaluate_candidates(
            [
                PredictedLayer(
                    layer=1,
                    scores=scores,
                    n_tokens=4,
                    cached_experts=frozenset(),
                    spilled_experts=frozenset({0, 1}),
                )
            ],
            current_layer=0,
        )
        plain_costs = {d.expert: d.cost for d in plain}
        spilled_costs = {d.expert: d.cost for d in spilled}
        for expert in spilled_costs:
            if expert in plain_costs and expert in (0, 1):
                assert spilled_costs[expert] == pytest.approx(
                    plain_costs[expert] + DISK_FETCH
                )

    def test_negative_disk_fetch_rejected(self, toy_oracle_factory):
        with pytest.raises(SchedulingError):
            self._prefetcher(toy_oracle_factory, -1.0)
