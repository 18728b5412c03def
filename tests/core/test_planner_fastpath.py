"""Planner vs reference-planner equality (the PR 3 tentpole contract).

``HybridScheduler`` prunes candidates, tabulates durations and builds
only the winning allocation's plan from its own event loop — but it
must emit **bit-identical plans** to the reference event-driven
simulator kept in ``tests/reference_planner.py``. These property tests
pin that down over randomized activations, cache states, in-flight
arrivals, backlogs and cost regimes, at the raw scheduler level,
through every strategy's ``plan_layer`` (single- and
multi-GPU-shaped contexts), and end-to-end through the engine.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid_scheduler import (
    _TIE_EPS,
    HybridScheduler,
    SchedulerConfig,
    _scan_candidates,
)
from repro.core.tasks import LayerCostOracle
from repro.engine.factory import available_strategies, make_engine, make_strategy
from repro.experiments.runner import cached_model
from repro.engine.strategy_base import LayerContext
from repro.models.config import ExpertShape, MoEModelConfig
from repro.rng import derive_rng
from tests.reference_planner import ReferencePlanner, install_reference_planner


class _RandomCost:
    """Arbitrary but consistent positive cost model for properties."""

    def __init__(self, gpu, cpu_per_token, transfer, warmup=0.0, gpu_per_token=0.0):
        self.gpu = gpu
        self.gpu_per_token = gpu_per_token
        self.cpu_per_token = cpu_per_token
        self.transfer = transfer
        self.warmup = warmup

    def expert_bytes(self, shape):
        return 1.0

    def gpu_expert_time(self, shape, tokens):
        return self.gpu + self.gpu_per_token * tokens if tokens else 0.0

    def cpu_expert_time(self, shape, tokens, first_task=False):
        if not tokens:
            return 0.0
        return self.cpu_per_token * tokens + (self.warmup if first_task else 0.0)

    def transfer_time(self, shape):
        return self.transfer

    def attention_time(self, d_model, tokens, device="gpu"):
        return 0.1


_MODEL = MoEModelConfig(
    name="prop",
    num_layers=1,
    num_shared_experts=1,
    num_routed_experts=64,
    num_activated_experts=4,
    routed_expert_shape=ExpertShape(8, 8),
    shared_expert_shape=ExpertShape(8, 8),
)


def _scheduler_pair(gpu, cpu, transfer, warmup, steal, gpu_per_token=0.0):
    """The production planner and the oracle over one cost model."""
    cost = _RandomCost(gpu, cpu, transfer, warmup, gpu_per_token)

    def factory(n_tokens):
        return LayerCostOracle.for_model(cost, _MODEL, n_tokens)

    fast = HybridScheduler(
        factory, SchedulerConfig(allow_cpu_steal=steal)
    )
    reference = ReferencePlanner(
        factory, SchedulerConfig(allow_cpu_steal=steal, plan_cache_size=0)
    )
    return fast, reference


#: Up to a full-width prefill layer: all 64 experts activated with
#: loads up to 512 — 40+ candidate transfer counts per search. Small
#: load alphabets make equal-load ties (and equal makespans) common.
_EXPERTS = st.integers(0, 63)
_ACTIVATION = st.one_of(
    st.dictionaries(_EXPERTS, st.integers(1, 512), min_size=1, max_size=64),
    st.dictionaries(_EXPERTS, st.sampled_from([1, 2, 3, 48]), min_size=8, max_size=64),
)
#: Cached sets leave up to 48 (or all) of the activated experts uncached.
_CACHED = st.sets(_EXPERTS, max_size=40)
#: In-flight arrival offsets; ``inf`` is a transfer that never lands.
_OFFSET = st.one_of(st.floats(0.0, 400.0), st.just(float("inf")))


class TestFastPathEquality:
    @given(
        loads=_ACTIVATION,
        cached_mask=_CACHED,
        inflight_raw=st.dictionaries(_EXPERTS, _OFFSET, max_size=8),
        spilled=st.sets(_EXPERTS, max_size=24),
        disk_fetch_s=st.sampled_from([0.0, 0.5, 7.0]),
        gpu=st.floats(0.1, 5.0),
        gpu_per_token=st.sampled_from([0.0, 0.02, 0.5]),
        cpu=st.floats(0.1, 5.0),
        transfer=st.floats(0.1, 10.0),
        warmup=st.floats(0.0, 2.0),
        pcie_backlog=st.one_of(st.floats(0.0, 12.0), st.just(float("inf"))),
        cpu_backlog=st.floats(0.0, 12.0),
        steal=st.booleans(),
        include_shared=st.booleans(),
        n_tokens=st.sampled_from([1, 4, 128]),
    )
    @settings(max_examples=220, deadline=None)
    def test_plans_bit_identical(
        self,
        loads,
        cached_mask,
        inflight_raw,
        spilled,
        disk_fetch_s,
        gpu,
        gpu_per_token,
        cpu,
        transfer,
        warmup,
        pcie_backlog,
        cpu_backlog,
        steal,
        include_shared,
        n_tokens,
    ):
        """The search and the reference simulator agree on the whole
        ``ExecutionPlan`` — GPU order, CPU order with steals last in
        steal order, transfers, ``after_transfer`` flags,
        ``metadata["stolen"]`` and the makespan float."""
        fast, reference = _scheduler_pair(
            gpu, cpu, transfer, warmup, steal, gpu_per_token
        )
        activated = sorted(loads.items())
        cached = cached_mask & set(loads)
        inflight = {e: t for e, t in inflight_raw.items()}
        args = (7, activated, cached, n_tokens)
        kwargs = dict(
            pcie_backlog=pcie_backlog,
            include_shared=include_shared,
            inflight=inflight,
            cpu_backlog=cpu_backlog,
            spilled=spilled,
            disk_fetch_s=disk_fetch_s,
        )
        plan_fast = fast.plan(*args, **kwargs)
        plan_ref = reference.plan(*args, **kwargs)
        assert plan_fast == plan_ref
        assert plan_fast.estimated_makespan == plan_ref.estimated_makespan
        # The memoized replay is bit-identical too.
        assert fast.plan(*args, **kwargs) == plan_ref

    def test_expert_arriving_at_inf_is_still_dispatched(self):
        """An in-flight expert that never lands is still run, at ``inf``:
        both planners return the same valid plan with makespan ``inf``."""
        fast, reference = _scheduler_pair(1.0, 2.5, 4.0, 0.0, True)
        args = (0, [(1, 1), (2, 1)], {1, 2}, 1)
        kwargs = dict(pcie_backlog=1.0, inflight={1: float("inf")})
        plan = reference.plan(*args, **kwargs)
        plan.validate({1: 1, 2: 1}, {1, 2})
        assert plan.estimated_makespan == float("inf")
        assert plan == fast.plan(*args, **kwargs)

    @given(
        loads=_ACTIVATION,
        cached_mask=_CACHED,
        gpu=st.floats(0.1, 5.0),
        cpu=st.floats(0.1, 5.0),
        transfer=st.floats(0.1, 10.0),
        quick=st.booleans(),
        cpu_backlog=st.floats(0.0, 8.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_makespans_bit_identical(
        self, loads, cached_mask, gpu, cpu, transfer, quick, cpu_backlog
    ):
        fast, reference = _scheduler_pair(gpu, cpu, transfer, 0.0, True)
        activated = sorted(loads.items())
        cached = cached_mask & set(loads)
        mk_fast = fast.simulate_makespan(
            activated, cached, 4, quick=quick, cpu_backlog=cpu_backlog
        )
        mk_ref = reference.simulate_makespan(
            activated, cached, 4, quick=quick, cpu_backlog=cpu_backlog
        )
        assert mk_fast == mk_ref

    @given(
        loads=_ACTIVATION,
        cached_mask=_CACHED,
        gpu=st.floats(0.1, 5.0),
        cpu=st.floats(0.1, 5.0),
        transfer=st.floats(0.1, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_quick_lower_bound_is_a_lower_bound(
        self, loads, cached_mask, gpu, cpu, transfer
    ):
        """The prefetcher's screening bound never exceeds the exact
        quick makespan (the property that makes screening exact)."""
        fast, _ = _scheduler_pair(gpu, cpu, transfer, 0.0, True)
        activated = sorted(loads.items())
        cached = cached_mask & set(loads)
        bound = fast.quick_makespan_lower_bound(activated, cached, 4)
        exact = fast.simulate_makespan(activated, cached, 4, quick=True)
        assert bound <= exact


# ----------------------------------------------------------------------
# probe-seeded pruning: ties, near-ties and the work it saves
# ----------------------------------------------------------------------

#: Exactly representable costs make equal makespans across several
#: transfer counts *bit*-equal; the decimal ones differ by rounding
#: noise far below ``_TIE_EPS`` instead.
_GRID_COST = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 0.1, 0.3, 0.7])


def _reference_fold(makespans):
    """The reference argmin: replace only if better by more than eps."""
    best = None
    for k, mk in makespans:
        if best is None or mk < best[1] - _TIE_EPS:
            best = (k, mk)
    return best


class TestProbeSeededPruning:
    @given(
        n=st.integers(8, 64),
        n_cached=st.integers(0, 24),
        levels=st.lists(st.sampled_from([1, 2, 4, 48]), min_size=1, max_size=2),
        gpu=_GRID_COST,
        cpu=_GRID_COST,
        transfer=_GRID_COST,
        steal=st.booleans(),
        pcie_backlog=st.sampled_from([0.0, 0.5, 3.0]),
        cpu_backlog=st.sampled_from([0.0, 0.25, 6.0]),
        n_inflight=st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_flat_loads_keep_the_fewest_transfers(
        self, n, n_cached, levels, gpu, cpu, transfer, steal, pcie_backlog,
        cpu_backlog, n_inflight,
    ):
        """Flat (one- or two-level) loads put plateaus of equal
        makespans under the search; the probe lands inside them and
        the plan must still be the reference's fewest-transfers one."""
        fast, reference = _scheduler_pair(gpu, cpu, transfer, 0.0, steal)
        activated = [(e, levels[e % len(levels)]) for e in range(n)]
        cached = set(range(0, 2 * min(n_cached, n // 2), 2))
        inflight = {e: 1.5 * (i + 1) for i, e in enumerate(sorted(cached)[:n_inflight])}
        kwargs = dict(
            pcie_backlog=pcie_backlog, cpu_backlog=cpu_backlog, inflight=inflight
        )
        plan_fast = fast.plan(0, activated, cached, 4, **kwargs)
        plan_ref = reference.plan(0, activated, cached, 4, **kwargs)
        assert plan_fast == plan_ref
        assert plan_fast.estimated_makespan == plan_ref.estimated_makespan

    @given(
        n=st.integers(2, 40),
        n_cached=st.integers(0, 16),
        levels=st.lists(st.sampled_from([1, 2, 4, 48]), min_size=1, max_size=3),
        gpu=_GRID_COST,
        gpu_per_token=st.sampled_from([0.0, 0.125, 0.01]),
        cpu=st.one_of(_GRID_COST, st.just(0.0)),
        transfer=_GRID_COST,
        warmup=st.sampled_from([0.0, 0.5]),
        backlogs=st.tuples(
            st.sampled_from([0.0, 0.5, 3.0]), st.sampled_from([0.0, 0.25, 6.0])
        ),
        n_inflight=st.integers(0, 3),
        spilled=st.sets(st.integers(0, 39), max_size=6),
        include_shared=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_allocation_simulates_bit_identically(
        self, n, n_cached, levels, gpu, gpu_per_token, cpu, transfer, warmup,
        backlogs, n_inflight, spilled, include_shared,
    ):
        """Not just the winner: with the search pinned to one transfer
        count at a time, the record-free event loop returns the
        reference simulator's makespan for *every* allocation — on a
        cost grid where GPU and CPU events coincide to the bit (steal
        ties, simultaneous arrivals, zero-length CPU jobs)."""
        fast, reference = _scheduler_pair(
            gpu, cpu, transfer, warmup, True, gpu_per_token
        )
        # The memo key cannot see the pinned transfer count.
        fast = HybridScheduler(
            fast._oracle_factory, dataclasses.replace(fast.config, plan_cache_size=0)
        )
        activated = [(e, levels[e % len(levels)]) for e in range(n)]
        cached = set(range(0, 2 * min(n_cached, n // 2), 2))
        inflight = {e: 1.5 * (i + 1) for i, e in enumerate(sorted(cached)[:n_inflight])}
        kwargs = dict(
            pcie_backlog=backlogs[0], cpu_backlog=backlogs[1], inflight=inflight,
            spilled=spilled, disk_fetch_s=0.75, include_shared=include_shared,
        )
        for k in range(n - len(cached) + 1):
            for scheduler in (fast, reference):
                scheduler._candidate_transfer_counts = lambda n_unc, quick, k=k: [k]
            assert fast.simulate_makespan(
                activated, cached, 4, **kwargs
            ) == reference.simulate_makespan(activated, cached, 4, **kwargs)

    def test_pinned_plateau(self):
        """29 experts of load 4, every other one of the top 18 ids
        cached: transfer counts 10..19 all reach the minimal makespan
        20.0 exactly (each extra transfer is offset by one more CPU
        steal). The plan must transfer 10."""
        fast, reference = _scheduler_pair(1.0, 0.5, 1.0, 0.0, True)
        activated = [(e, 4) for e in range(29)]
        cached = set(range(28, 10, -2))
        loads, _, _ = reference._validated_inputs(activated, cached, 0.0, 0.0, None)
        oracle = LayerCostOracle.for_model(_RandomCost(1.0, 0.5, 1.0), _MODEL, 4)
        makespans = [
            reference._simulate(loads, cached, oracle, k, 0.0, True).makespan
            for k in range(21)
        ]
        assert [k for k, mk in enumerate(makespans) if mk == min(makespans)] == list(
            range(10, 20)
        )
        plan = fast.plan(0, activated, cached, 4)
        assert plan.metadata["transfer_count"] == 10
        assert plan.estimated_makespan == 20.0
        assert plan == reference.plan(0, activated, cached, 4)

    @given(
        steps=st.lists(st.integers(0, 14), min_size=1, max_size=14),
        slack=st.lists(st.sampled_from([0, 1, 3, 40]), min_size=14, max_size=14),
        base=st.sampled_from([1e-3, 1.0, 64.0]),
    )
    @settings(max_examples=400, deadline=None)
    def test_scan_equals_reference_fold_on_near_ties(self, steps, slack, base):
        """The decision procedure on its own, fed makespans a fraction
        of ``_TIE_EPS`` apart — chains in which which candidate replaces
        which depends on every earlier one — and arbitrary valid lower
        bounds. Whatever it skips, it must return the reference fold."""
        unit = max(0.3 * _TIE_EPS, float(np.spacing(base)))
        makespans = [base + step * unit for step in steps]
        bounds = [mk - gap * unit for mk, gap in zip(makespans, slack)]
        counts = list(range(0, 2 * len(makespans), 2))
        simulated = []

        def makespan(i):
            simulated.append(i)
            return makespans[i]

        assert _scan_candidates(counts, bounds, makespan) == _reference_fold(
            zip(counts, makespans)
        )

    def test_scan_restarts_on_a_makespan_inside_the_gap(self):
        """k=0 sits 0.6 eps above the probe's makespan: neither low nor
        high. The capped scan would return the probe; the reference
        keeps k=0 (not beaten by more than eps)."""
        makespans = [1.0 + 0.6e-15, 3.0, 1.0]
        bounds = [0.5, 0.6, 0.4]
        assert makespans[0] > makespans[2] and makespans[0] - _TIE_EPS <= makespans[2]
        result = _scan_candidates([0, 1, 2], bounds, makespans.__getitem__)
        assert result == (0, makespans[0]) == _reference_fold(enumerate(makespans))

    @given(
        loads=_ACTIVATION,
        cached_mask=_CACHED,
        spilled=st.sets(_EXPERTS, max_size=12),
        disk_fetch_s=st.sampled_from([0.0, 2.0]),
        gpu=st.floats(0.1, 5.0),
        cpu=st.floats(0.1, 5.0),
        transfer=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_quick_calls_equal_per_call_simulations(
        self, loads, cached_mask, spilled, disk_fetch_s, gpu, cpu, transfer
    ):
        """``quick_screen`` / ``quick_makespans_with`` run the one
        search routine: their floats are ``simulate_makespan(quick=True)``
        of the fast *and* of the reference path."""
        fast, reference = _scheduler_pair(gpu, cpu, transfer, 0.0, True)
        activated = sorted(loads.items())
        cached = cached_mask & set(loads)
        candidates = [e for e in loads if e not in cached][:6]
        tier = dict(spilled=spilled, disk_fetch_s=disk_fetch_s)
        base, bounds = fast.quick_screen(activated, cached, 4, candidates, **tier)
        assert base == reference.simulate_makespan(
            activated, cached, 4, quick=True, **tier
        )
        with_expert = fast.quick_makespans_with(
            activated, cached, 4, candidates, **tier
        )
        for expert in candidates:
            exact = reference.simulate_makespan(
                activated, cached | {expert}, 4, quick=True, **tier
            )
            assert with_expert[expert] == exact
            assert bounds[expert] <= exact
            assert bounds[expert] == fast.quick_makespan_lower_bound(
                activated, cached | {expert}, 4, **tier
            )


def test_wide_prefill_plans_need_few_simulations():
    """Deterministic work count, no wall clock: each of the 8 layers of
    a 512-token deepseek prefill (all 64 experts activated; on most
    layers 28-45 of them uncached) plans with at most 8 runs of the
    schedule event loop — every run ``plan()`` makes, the one that
    yields the emitted plan included (the plain ascending scan needed
    26-41 on the wide ones) — and the plans are the reference's."""
    engine = make_engine(
        model="deepseek", strategy="hybrimoe", num_layers=8, cache_ratio=0.5, seed=0
    )
    scheduler = engine.runtime.scheduler
    calls = []
    plan = scheduler.plan

    def recording(layer, activated, cached_experts, *args, **kwargs):
        calls.append(((layer, activated, cached_experts, *args), kwargs))
        return plan(layer, activated, cached_experts, *args, **kwargs)

    scheduler.plan = recording
    prompt = derive_rng(0, "fastpath-prefill").integers(
        0, engine.model.vocab_size, size=512
    )
    engine.generate(prompt, decode_steps=0)
    assert len(calls) == 8

    factory = engine.runtime.estimated_oracle
    fast = HybridScheduler(factory, SchedulerConfig(plan_cache_size=0))
    reference = ReferencePlanner(factory, SchedulerConfig(plan_cache_size=0))
    simulations = []
    run_schedule = fast._run_schedule
    fast._run_schedule = lambda *args: (
        simulations.append(1) or run_schedule(*args)
    )
    wide = 0
    for args, kwargs in calls:
        del simulations[:]
        got = fast.plan(*args, **kwargs)
        want = reference.plan(*args, **kwargs)
        assert (got.metadata["transfer_count"], got.estimated_makespan) == (
            want.metadata["transfer_count"], want.estimated_makespan,
        )
        assert got == want
        assert 1 <= len(simulations) <= 8
        _, activated, cached = args[:3]
        wide += sum(e not in cached for e, _ in activated) >= 24
    assert wide >= 5


class _CountingOracle:
    """A ``LayerCostOracle`` stand-in counting per-duration calls."""

    def __init__(self, oracle, counts):
        self._oracle, self._counts = oracle, counts

    def __getattr__(self, name):
        attribute = getattr(self._oracle, name)
        if name not in ("gpu_compute", "cpu_compute", "transfer"):
            return attribute

        def counted(*args, **kwargs):
            self._counts[name] = self._counts.get(name, 0) + 1
            return attribute(*args, **kwargs)

        return counted


def test_decode_plans_cost_one_oracle_lookup_per_load():
    """No wall clock: decode-shaped ``plan()`` calls (6 of 64 experts,
    one token each, memo off so every call searches and emits) read
    durations from the per-``n_tokens`` table — one ``transfer()``, one
    ``gpu_compute`` per distinct load and at most two ``cpu_compute``
    (first task or not) over *all* the calls. The reference simulator
    made one oracle call per event; that must not creep back."""
    cost = _RandomCost(1.0, 2.5, 4.0, warmup=0.5)
    counts: dict[str, int] = {}

    def factory(n_tokens):
        return _CountingOracle(
            LayerCostOracle.for_model(cost, _MODEL, n_tokens), counts
        )

    scheduler = HybridScheduler(factory, SchedulerConfig(plan_cache_size=0))
    rng = derive_rng(0, "decode-oracle-calls")
    for layer in range(40):
        experts = [int(e) for e in rng.choice(64, size=6, replace=False)]
        cached = {e for e in experts if rng.random() < 0.6}
        plan = scheduler.plan(
            layer, [(e, 1) for e in experts], cached, 1,
            pcie_backlog=float(rng.choice([0.0, 2.0])),
        )
        plan.validate(dict.fromkeys(experts, 1), cached)
    assert counts["transfer"] == 1
    assert counts["gpu_compute"] == 1
    assert 1 <= counts["cpu_compute"] <= 2


# ----------------------------------------------------------------------
# every strategy, 1-GPU and multi-GPU-shaped contexts
# ----------------------------------------------------------------------

_TINY = MoEModelConfig(
    name="tiny-fastpath",
    num_layers=3,
    num_shared_experts=1,
    num_routed_experts=8,
    num_activated_experts=2,
    routed_expert_shape=ExpertShape(256, 512),
    shared_expert_shape=ExpertShape(256, 512),
)


def _engine_pair(strategy_name):
    """One engine on the default (memoized) planner, one with the
    from-scratch reference planner installed on it."""
    from repro.models.model import ReferenceMoEModel

    engines = [
        make_engine(
            model=ReferenceMoEModel(
                _TINY, d_model=16, d_ff=32, vocab_size=128, seed=0
            ),
            strategy=strategy_name,
            cache_ratio=0.5,
        )
        for _ in range(2)
    ]
    install_reference_planner(engines[1])
    return engines


def _random_context(rng, layer, multi_gpu):
    n = int(rng.integers(1, 9))
    experts = sorted(int(e) for e in rng.choice(8, size=n, replace=False))
    activated = tuple((e, int(rng.integers(1, 20))) for e in experts)
    cached = frozenset(
        int(e) for e in rng.choice(experts, size=int(rng.integers(0, n + 1)), replace=False)
    )
    inflight = tuple(
        (e, float(rng.uniform(0.001, 0.01)))
        for e in cached
        if rng.random() < 0.3
    )
    return LayerContext(
        layer=layer,
        stage="decode" if rng.random() < 0.7 else "prefill",
        n_tokens=int(rng.choice([1, 2, 8])),
        router=None,  # no strategy consults the router during planning
        activated=activated,
        cached_experts=cached,
        moe_start=float(rng.uniform(0.0, 1.0)),
        pcie_backlog=float(rng.choice([0.0, rng.uniform(0.0, 0.01)])),
        inflight_offsets=inflight,
        device_id=int(rng.integers(0, 4)) if multi_gpu else 0,
        include_shared=bool(rng.random() < 0.5) if multi_gpu else True,
        cpu_backlog=float(rng.uniform(0.0, 0.01)) if multi_gpu else 0.0,
    )


@pytest.mark.parametrize("strategy_name", available_strategies())
def test_strategy_plans_identical_across_paths(strategy_name):
    """For randomized layer contexts — including multi-GPU device-group
    shapes (partial activations, cpu_backlog, include_shared=False) —
    every strategy's plan is bit-identical to the reference planner's.

    Five strategies x 40 contexts = 200 randomized cases.
    """
    engine_fast, engine_ref = _engine_pair(strategy_name)
    rng = derive_rng(0, "fastpath-strategy", strategy_name)
    for case in range(40):
        ctx = _random_context(rng, layer=case % 3, multi_gpu=case % 2 == 1)
        plan_fast = engine_fast.strategy.plan_layer(ctx)
        plan_ref = engine_ref.strategy.plan_layer(ctx)
        assert plan_fast == plan_ref, f"case {case}: {strategy_name} plans diverged"


def test_end_to_end_generation_identical(prompt_tokens):
    """A full generate() run (prefill + sampled decode, prefetching and
    MRS caching active) is step-for-step identical on the reference
    planner."""
    engine_fast, engine_ref = _engine_pair("hybrimoe")
    result_fast = engine_fast.generate(prompt_tokens, decode_steps=6)
    result_ref = engine_ref.generate(prompt_tokens, decode_steps=6)
    assert result_fast.prefill == result_ref.prefill
    assert result_fast.decode_steps == result_ref.decode_steps
    assert result_fast.total_hits == result_ref.total_hits
    assert result_fast.total_misses == result_ref.total_misses


def test_end_to_end_sharded_identical(prompt_tokens):
    """The sharded (multi-GPU) dispatch path threads the same memoized
    planner; a 2-GPU run is identical under the reference planner."""
    results = []
    for reference in (False, True):
        engine = make_engine(
            model="deepseek",
            strategy="hybrimoe",
            num_layers=2,
            cache_ratio=0.25,
            num_gpus=2,
        )
        if reference:
            install_reference_planner(engine)
        results.append(engine.generate(prompt_tokens, decode_steps=4))
    fast_result, ref_result = results
    assert fast_result.prefill == ref_result.prefill
    assert fast_result.decode_steps == ref_result.decode_steps
    assert fast_result.total_hits == ref_result.total_hits


# ----------------------------------------------------------------------
# memoization semantics
# ----------------------------------------------------------------------


class TestPlanMemo:
    def _scheduler(self, size):
        cost = _RandomCost(2.0, 1.5, 3.0)

        def factory(n_tokens):
            return LayerCostOracle.for_model(cost, _MODEL, n_tokens)

        return HybridScheduler(
            factory, SchedulerConfig(plan_cache_size=size)
        )

    def test_hit_returns_fresh_equal_plan(self):
        scheduler = self._scheduler(16)
        activated = [(0, 3), (1, 1), (2, 5)]
        first = scheduler.plan(0, activated, {1}, n_tokens=1)
        second = scheduler.plan(0, activated, {1}, n_tokens=1)
        assert first == second
        assert first is not second  # callers own their copy
        assert first.gpu_tasks is not second.gpu_tasks
        assert first.metadata is not second.metadata
        info = scheduler.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_mutating_a_hit_does_not_poison_the_memo(self):
        scheduler = self._scheduler(16)
        activated = [(0, 3), (1, 1)]
        first = scheduler.plan(0, activated, set(), n_tokens=1)
        first.gpu_tasks.clear()
        first.metadata["stolen"].append(99)
        second = scheduler.plan(0, activated, set(), n_tokens=1)
        assert second == self._scheduler(0).plan(0, activated, set(), n_tokens=1)

    #: The layer the two key tests vary: expert 5 cached and in flight,
    #: 2 and 9 uncached, 9 spilled — every input of ``plan`` is read.
    _BASE = dict(
        layer=0, activated=[(2, 3), (5, 1), (9, 2)], cached_experts={5}, n_tokens=1,
        pcie_backlog=0.5, include_shared=True, inflight={5: 0.25}, cpu_backlog=0.25,
        spilled={9}, disk_fetch_s=0.5,
    )

    def test_key_distinguishes_every_input(self):
        scheduler = self._scheduler(64)
        base = self._BASE
        variants = [
            base,
            dict(base, activated=[(2, 4), (5, 1), (9, 2)]),  # a load
            dict(base, cached_experts={2, 5}),  # a cached flag
            dict(base, spilled={2, 9}),  # a spilled flag
            dict(base, inflight={5: 0.5}),  # offset of a cached expert
            dict(base, pcie_backlog=0.75),
            dict(base, disk_fetch_s=0.75),
            dict(base, cpu_backlog=0.5),
            dict(base, n_tokens=2),
            dict(base, include_shared=False),
        ]
        for kwargs in variants:
            scheduler.plan(**kwargs)
        assert scheduler.cache_info()["hits"] == 0
        assert scheduler.cache_info()["misses"] == len(variants)
        # ``quick`` and the candidate set of the batched calls.
        args = (base["activated"], base["cached_experts"], 1)
        scheduler.simulate_makespan(*args, quick=False)
        scheduler.simulate_makespan(*args, quick=True)
        for batched in (
            scheduler.quick_screen,
            scheduler.quick_makespans_with,
            scheduler.quick_makespan_lower_bounds,
        ):
            batched(*args, [2])
            batched(*args, [2, 9])
            batched(*args, [2, 40])  # 40 is not activated: the absent rank
        assert scheduler.cache_info()["hits"] == 0

    def test_key_ignores_every_input_that_is_not_read(self):
        """Each of these calls is a hit on the first one's entry — and
        what the hit is translated to is the from-scratch answer."""
        scheduler = self._scheduler(64)
        reference = ReferencePlanner(
            scheduler._oracle_factory, SchedulerConfig(plan_cache_size=0)
        )
        base = self._BASE
        scheduler.plan(**base)
        same_shape = [
            dict(base, layer=7),
            dict(base, cached_experts={5, 0, 63}),  # non-activated members
            dict(base, spilled={9, 1, 40}),
            dict(base, inflight={5: 0.25, 3: 9.0}),
            dict(base, spilled={9, 5}),  # spill state of a cached expert
            dict(base, inflight={5: 0.25, 2: 9.0}),  # offset of an uncached one
            dict(  # the same layer under an increasing relabelling
                base, activated=[(11, 3), (12, 1), (60, 2)], cached_experts={12, 0},
                inflight={12: 0.25}, spilled={60, 13},
            ),
        ]
        for kwargs in same_shape:
            assert scheduler.plan(**kwargs) == reference.plan(**kwargs)
        # Nothing uncached: the PCIe backlog seeds no transfer lane.
        # Nothing spilled: the disk cost is added nowhere.
        all_cached = dict(base, cached_experts={2, 5, 9}, spilled=None)
        scheduler.plan(**all_cached)
        for kwargs in (
            dict(all_cached, pcie_backlog=7.0),
            dict(all_cached, disk_fetch_s=3.0, spilled={2}),
        ):
            assert scheduler.plan(**kwargs) == reference.plan(**kwargs)
        info = scheduler.cache_info()
        assert (info["hits"], info["misses"]) == (len(same_shape) + 2, 2)
        # Batched calls: candidates enter as ranks, non-activated ones
        # share one.
        args = ([(2, 3), (5, 1), (9, 2)], {5}, 1)
        relabelled = ([(11, 3), (12, 1), (60, 2)], {12, 0}, 1)
        for name in ("quick_screen", "quick_makespans_with", "quick_makespan_lower_bounds"):
            getattr(scheduler, name)(*args, [9, 40])
            before = scheduler.cache_info()["hits"]
            for call_args, candidates in ((args, [41, 9]), (relabelled, [60, 13, 14])):
                assert getattr(scheduler, name)(*call_args, candidates) == getattr(
                    reference, name
                )(*call_args, candidates)
            assert scheduler.cache_info()["hits"] == before + 2

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.quick_screen([(0, 1), (1, 2), (2, 1)], {0}, 1, [1, 2])[1],
            lambda s: s.quick_makespans_with([(0, 1), (1, 2), (2, 1)], {0}, 1, [1, 2]),
            lambda s: s.quick_makespan_lower_bounds([(0, 1), (1, 2), (2, 1)], {0}, 1, [1, 2]),
            lambda s: s.plan(0, [(0, 1), (1, 2), (2, 1)], {0}, 1).metadata,
        ],
        ids=["quick_screen", "quick_makespans_with", "quick_makespan_lower_bounds", "plan"],
    )
    def test_results_are_rebuilt_per_call_never_shared(self, call):
        """The miss and every hit hand out their own container: a
        caller that mutates one corrupts nobody's later answer."""
        scheduler = self._scheduler(16)
        pristine = call(self._scheduler(0))
        for _ in range(3):  # the miss, then two hits
            result = call(scheduler)
            assert result == pristine
            result.clear()
            result[1] = -1.0
        assert scheduler.cache_info()["hits"] == 2

    @given(
        loads=_ACTIVATION,
        cached_mask=_CACHED,
        inflight_raw=st.dictionaries(_EXPERTS, st.floats(0.0, 400.0), max_size=8),
        spilled=st.sets(_EXPERTS, max_size=24),
        disk_fetch_s=st.sampled_from([0.0, 0.5, 7.0]),
        gpu=st.floats(0.1, 5.0),
        gpu_per_token=st.sampled_from([0.0, 0.02, 0.5]),
        cpu=st.floats(0.1, 5.0),
        transfer=st.floats(0.1, 10.0),
        warmup=st.floats(0.0, 2.0),
        pcie_backlog=st.floats(0.0, 12.0),
        cpu_backlog=st.floats(0.0, 12.0),
        steal=st.booleans(),
        include_shared=st.booleans(),
        n_tokens=st.sampled_from([1, 4, 128]),
        quick=st.booleans(),
        labels=st.lists(st.integers(0, 999), min_size=128, max_size=128, unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_relabelled_layer_hits_and_equals_the_reference(
        self, loads, cached_mask, inflight_raw, spilled, disk_fetch_s, gpu,
        gpu_per_token, cpu, transfer, warmup, pcie_backlog, cpu_backlog, steal,
        include_shared, n_tokens, quick, labels,
    ):
        """The ``test_plans_bit_identical`` space, asked twice: once to
        prime the memo, then as the same shape under a random strictly
        increasing relabelling of the expert ids, another ``layer``
        and junk non-activated members in all three sets. The second
        answer is a memo hit, translated to the new ids — and must be
        what the reference planner computes from scratch for them."""
        fast, reference = _scheduler_pair(
            gpu, cpu, transfer, warmup, steal, gpu_per_token
        )
        experts = sorted(loads)
        relabel = dict(zip(experts, sorted(labels[: len(experts)])))
        junk_cached, junk_spilled = set(labels[64:90]), set(labels[90:110])
        junk_inflight = dict.fromkeys(labels[110:118], 1.5)

        def labelled(second):
            if not second:
                activated = sorted(loads.items())
                return activated, cached_mask & set(loads), inflight_raw, spilled
            return (
                [(relabel[e], loads[e]) for e in reversed(experts)],
                {relabel[e] for e in cached_mask & set(loads)} | junk_cached,
                {relabel[e]: t for e, t in inflight_raw.items() if e in loads}
                | junk_inflight,
                {relabel[e] for e in spilled & set(loads)} | junk_spilled,
            )

        def calls(planner, second):
            """Every memoized entry point on one labelling."""
            activated, cached, inflight, spilled_ids = labelled(second)
            full = dict(
                pcie_backlog=pcie_backlog, include_shared=include_shared,
                inflight=inflight, cpu_backlog=cpu_backlog, spilled=spilled_ids,
                disk_fetch_s=disk_fetch_s,
            )
            tier = dict(spilled=spilled_ids, disk_fetch_s=disk_fetch_s)
            # Candidates: uncached and cached activated experts plus
            # one id that is not activated.
            picks = experts[:4] + experts[-2:]
            absent = labels[127] if second else 64
            candidates = [relabel[e] if second else e for e in picks] + [absent]
            args = (activated, cached, n_tokens)
            yield lambda: planner.plan(11 if second else 7, *args, **full)
            yield lambda: planner.simulate_makespan(*args, quick=quick, **full)
            yield lambda: planner.quick_screen(*args, candidates, **tier)
            yield lambda: planner.quick_makespans_with(*args, candidates, **tier)
            yield lambda: planner.quick_makespan_lower_bounds(*args, candidates, **tier)

        for call in calls(fast, second=False):
            call()
        primed = fast.cache_info()
        assert (primed["hits"], primed["misses"]) == (0, 5)
        for hit, scratch in zip(calls(fast, True), calls(reference, True)):
            assert hit() == scratch()
        # The quick calls' oracle is the reference *simulator*, not the
        # search the reference planner inherits.
        activated, cached, _, spilled_ids = labelled(True)
        tier = dict(spilled=spilled_ids, disk_fetch_s=disk_fetch_s)
        expert = relabel[experts[0]]
        assert fast.quick_makespans_with(activated, cached, n_tokens, [expert], **tier)[
            expert
        ] == reference.simulate_makespan(
            activated, cached | {expert}, n_tokens, quick=True, **tier
        )
        assert fast.cache_info()["hits"] == 5
        assert fast.cache_info()["misses"] == 6

    def test_activation_order_shares_one_entry(self):
        scheduler = self._scheduler(16)
        a = scheduler.plan(0, [(0, 3), (1, 1)], set(), n_tokens=1)
        b = scheduler.plan(0, [(1, 1), (0, 3)], set(), n_tokens=1)
        assert a == b
        assert scheduler.cache_info() == {
            "hits": 1, "misses": 1, "size": 1, "capacity": 16
        }

    def test_lru_bound_and_disable(self):
        scheduler = self._scheduler(2)
        for load in range(1, 6):  # five shapes; five ids would be one
            scheduler.plan(0, [(0, load)], set(), n_tokens=1)
        assert scheduler.cache_info()["size"] == 2
        scheduler.plan(0, [(9, 5)], set(), n_tokens=1)
        scheduler.plan(0, [(0, 3)], set(), n_tokens=1)  # evicted
        assert scheduler.cache_info()["hits"] == 1
        disabled = self._scheduler(0)
        disabled.plan(0, [(0, 1)], set(), n_tokens=1)
        disabled.plan(0, [(0, 1)], set(), n_tokens=1)
        assert disabled.cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": 0
        }

    def test_invalid_inputs_still_raise(self):
        """Validation runs on every call, ahead of the memo: each bad
        call below has the shape of the valid entry primed first (both
        experts cached and nothing spilled, so neither ``pcie_backlog``
        nor ``disk_fetch_s`` is even in the key)."""
        from repro.errors import SchedulingError

        scheduler = self._scheduler(16)
        full = {
            "plan": lambda a, **kw: scheduler.plan(0, a, {0, 1}, 1, **kw),
            "simulate_makespan": lambda a, **kw: scheduler.simulate_makespan(
                a, {0, 1}, 1, **kw
            ),
        }
        quick = {
            name: lambda a, name=name, **kw: getattr(scheduler, name)(
                a, {0, 1}, 1, [1], **kw
            )
            for name in (
                "quick_screen", "quick_makespans_with", "quick_makespan_lower_bounds"
            )
        }
        valid = [(0, 1), (1, 1)]
        bad_calls = [
            (dict(a=[(0, 1), (0, 1)]), "duplicate expert ids"),
            (dict(a=[(0, 1), (1, 0)]), "positive load"),
            (dict(a=valid, disk_fetch_s=-1.0), "disk_fetch_s must be non-negative"),
            (dict(a=valid, disk_fetch_s=float("nan")), "disk_fetch_s must be non-negative"),
        ]
        bad_backlogs = [
            (dict(a=valid, **{name: bad}), f"{name} must be non-negative")
            for name in ("pcie_backlog", "cpu_backlog")
            for bad in (-1.0, float("nan"))
        ]
        for name, call in {**full, **quick}.items():
            call(valid)
            size = scheduler.cache_info()["size"]
            for kwargs, message in bad_calls + (bad_backlogs if name in full else []):
                with pytest.raises(SchedulingError, match=message):
                    call(**kwargs)
            assert call(valid) is not None  # still a hit, entry intact
            assert scheduler.cache_info()["size"] == size
        assert scheduler.cache_info()["hits"] == len(full) + len(quick)


def test_decode_steps_hit_the_memo_and_rarely_simulate():
    """No wall clock: 64 decode steps of the ledger's ``decode_hot``
    engine. A decode layer is six unit loads and their cached flags, so
    nearly every planner call is a memo hit whatever ids were routed,
    and the event loop runs 4-5 times per 8-layer step (keyed on ids
    this run hit 287 times of 1 658 and simulated 24 times per step).
    The counts repeat exactly for a fixed seed."""
    engine = make_engine(
        model="deepseek", strategy="hybrimoe", hardware="paper", num_layers=8,
        cache_ratio=0.75, seed=3,
    )
    scheduler = engine.runtime.scheduler
    simulations = []
    run_schedule = scheduler._run_schedule
    scheduler._run_schedule = lambda *args: (
        simulations.append(1) or run_schedule(*args)
    )
    result = engine.decode_only(64)
    steps = len(result.decode_steps) + 1  # plus the warm prefill
    info = scheduler.cache_info()
    assert (info["hits"], info["misses"]) == (1469, 175)
    assert info["hits"] / (info["hits"] + info["misses"]) >= 0.75
    assert len(simulations) <= 5 * steps


def test_strategy_threads_scheduler_config():
    """HybriMoE's ``scheduler`` argument is the config of the planner it
    builds and publishes as ``runtime.scheduler``."""
    for planner in (SchedulerConfig(), SchedulerConfig(plan_cache_size=0)):
        engine = make_engine(
            cached_model("deepseek", 2, 0), make_strategy("hybrimoe", scheduler=planner)
        )
        assert engine.runtime.scheduler.config is planner
        assert engine.strategy._prefetcher.scheduler is engine.runtime.scheduler
    assert make_strategy("hybrimoe").scheduler_config.plan_cache_size > 0


def test_runtime_memoizes_oracles():
    """StepPipeline asks for an oracle per layer; the runtime hands back
    the same frozen object per (kind, n_tokens)."""
    from repro.models.model import ReferenceMoEModel

    engine = make_engine(
        model=ReferenceMoEModel(_TINY, d_model=16, d_ff=32, vocab_size=128, seed=0),
        strategy="hybrimoe",
    )
    runtime = engine.runtime
    assert runtime.estimated_oracle(4) is runtime.estimated_oracle(4)
    assert runtime.actual_oracle(4) is runtime.actual_oracle(4)
    assert runtime.estimated_oracle(4) is not runtime.estimated_oracle(5)
    assert runtime.estimated_oracle(4) is not runtime.actual_oracle(4)


def test_prefetch_screening_preserves_decisions():
    """Delta screening returns exactly the decisions of the unscreened
    prefetcher on the reference planner."""
    from repro.core.prefetch import ImpactDrivenPrefetcher, PredictedLayer

    cost = _RandomCost(1.0, 2.5, 4.0)

    def factory(n_tokens):
        return LayerCostOracle.for_model(cost, _MODEL, n_tokens)

    class UnscreenedPrefetcher(ImpactDrivenPrefetcher):
        """The oracle: every candidate pays for its exact simulation."""

        def _screen(self, candidates, base, confidence, bounds):
            return list(candidates)

    fast_sched = HybridScheduler(factory)
    ref_sched = ReferencePlanner(factory, SchedulerConfig(plan_cache_size=0))
    screened = ImpactDrivenPrefetcher(fast_sched, lambda: 4.0, 4, lookahead=3)
    unscreened = UnscreenedPrefetcher(ref_sched, lambda: 4.0, 4, lookahead=3)
    rng = derive_rng(0, "prefetch-screen")
    for _ in range(25):
        predictions = []
        for distance in range(1, int(rng.integers(2, 4))):
            cached = frozenset(
                int(e) for e in rng.choice(32, size=int(rng.integers(0, 12)), replace=False)
            )
            predictions.append(
                PredictedLayer(
                    layer=5 + distance,
                    scores=rng.random(32),
                    n_tokens=int(rng.choice([1, 4])),
                    cached_experts=cached,
                )
            )
        assert screened.evaluate_candidates(predictions, 5) == (
            unscreened.evaluate_candidates(predictions, 5)
        )
