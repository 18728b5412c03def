"""Fast-path vs reference planner equality (the PR 3 tentpole contract).

The incremental fast path prunes candidates, memoizes durations and
skips plan materialisation for losing allocations — but it must emit
**bit-identical plans** to the reference event-driven simulator. These
property tests pin that down over randomized activations, cache
states, in-flight arrivals, backlogs and cost regimes, at the raw
scheduler level, through every strategy's ``plan_layer`` (single- and
multi-GPU-shaped contexts), and end-to-end through the engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.tasks import LayerCostOracle
from repro.engine.engine import EngineConfig
from repro.engine.factory import available_strategies, make_engine
from repro.engine.strategy_base import LayerContext
from repro.models.config import ExpertShape, MoEModelConfig
from repro.rng import derive_rng


class _RandomCost:
    """Arbitrary but consistent positive cost model for properties."""

    def __init__(self, gpu, cpu_per_token, transfer, warmup=0.0):
        self.gpu = gpu
        self.cpu_per_token = cpu_per_token
        self.transfer = transfer
        self.warmup = warmup

    def expert_bytes(self, shape):
        return 1.0

    def gpu_expert_time(self, shape, tokens):
        return self.gpu if tokens else 0.0

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
    num_routed_experts=32,
    num_activated_experts=4,
    routed_expert_shape=ExpertShape(8, 8),
    shared_expert_shape=ExpertShape(8, 8),
)


def _scheduler_pair(gpu, cpu, transfer, warmup, steal, margin, width):
    cost = _RandomCost(gpu, cpu, transfer, warmup)

    def factory(n_tokens):
        return LayerCostOracle.for_model(cost, _MODEL, n_tokens)

    fast = HybridScheduler(
        factory,
        SchedulerConfig(
            allow_cpu_steal=steal,
            steal_margin=margin,
            max_search_width=width,
            fast_path=True,
        ),
    )
    reference = HybridScheduler(
        factory,
        SchedulerConfig(
            allow_cpu_steal=steal,
            steal_margin=margin,
            max_search_width=width,
            fast_path=False,
            plan_cache_size=0,
        ),
    )
    return fast, reference


_ACTIVATION = st.dictionaries(
    st.integers(0, 31), st.integers(1, 40), min_size=1, max_size=16
)


class TestFastPathEquality:
    @given(
        loads=_ACTIVATION,
        cached_mask=st.sets(st.integers(0, 31), max_size=16),
        inflight_raw=st.dictionaries(
            st.integers(0, 31), st.floats(0.0, 15.0), max_size=6
        ),
        gpu=st.floats(0.1, 5.0),
        cpu=st.floats(0.1, 5.0),
        transfer=st.floats(0.1, 10.0),
        warmup=st.floats(0.0, 2.0),
        pcie_backlog=st.floats(0.0, 12.0),
        cpu_backlog=st.floats(0.0, 12.0),
        steal=st.booleans(),
        margin=st.sampled_from([0.0, 0.1, 0.3]),
        width=st.sampled_from([None, 2, 3, 5]),
        include_shared=st.booleans(),
        n_tokens=st.sampled_from([1, 4, 128]),
    )
    @settings(max_examples=220, deadline=None)
    def test_plans_bit_identical(
        self,
        loads,
        cached_mask,
        inflight_raw,
        gpu,
        cpu,
        transfer,
        warmup,
        pcie_backlog,
        cpu_backlog,
        steal,
        margin,
        width,
        include_shared,
        n_tokens,
    ):
        """The fast search and the reference simulator agree exactly —
        tasks, order, transfers, makespan float and metadata."""
        fast, reference = _scheduler_pair(
            gpu, cpu, transfer, warmup, steal, margin, width
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
        )
        plan_fast = fast.plan(*args, **kwargs)
        plan_ref = reference.plan(*args, **kwargs)
        assert plan_fast == plan_ref
        assert plan_fast.estimated_makespan == plan_ref.estimated_makespan
        # The memoized replay is bit-identical too.
        assert fast.plan(*args, **kwargs) == plan_ref

    @given(
        loads=_ACTIVATION,
        cached_mask=st.sets(st.integers(0, 31), max_size=16),
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
        fast, reference = _scheduler_pair(gpu, cpu, transfer, 0.0, True, 0.0, None)
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
        cached_mask=st.sets(st.integers(0, 31), max_size=16),
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
        fast, _ = _scheduler_pair(gpu, cpu, transfer, 0.0, True, 0.0, None)
        activated = sorted(loads.items())
        cached = cached_mask & set(loads)
        bound = fast.quick_makespan_lower_bound(activated, cached, 4)
        exact = fast.simulate_makespan(activated, cached, 4, quick=True)
        assert bound <= exact


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
    from repro.models.model import ReferenceMoEModel

    engines = []
    for fast in (True, False):
        engines.append(
            make_engine(
                model=ReferenceMoEModel(
                    _TINY, d_model=16, d_ff=32, vocab_size=128, seed=0
                ),
                strategy=strategy_name,
                engine_config=EngineConfig(
                    cache_ratio=0.5, planner_fast_path=fast
                ),
            )
        )
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
    every strategy's plan is bit-identical under both planner paths.

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
    MRS caching active) is step-for-step identical under both paths."""
    engine_fast, engine_ref = _engine_pair("hybrimoe")
    result_fast = engine_fast.generate(prompt_tokens, decode_steps=6)
    result_ref = engine_ref.generate(prompt_tokens, decode_steps=6)
    assert result_fast.prefill == result_ref.prefill
    assert result_fast.decode_steps == result_ref.decode_steps
    assert result_fast.total_hits == result_ref.total_hits
    assert result_fast.total_misses == result_ref.total_misses


def test_end_to_end_sharded_identical(prompt_tokens):
    """The sharded (multi-GPU) dispatch path threads the same memoized
    planner; a 2-GPU run is identical under both planner paths."""
    results = []
    for fast in (True, False):
        engine = make_engine(
            model="deepseek",
            strategy="hybrimoe",
            num_layers=2,
            engine_config=EngineConfig(
                cache_ratio=0.25, num_gpus=2, planner_fast_path=fast
            ),
        )
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

    def test_key_distinguishes_every_input(self):
        scheduler = self._scheduler(64)
        base = dict(layer=0, activated=[(0, 3), (1, 1)], cached_experts=set(), n_tokens=1)
        scheduler.plan(**base)
        variants = [
            dict(base, layer=1),
            dict(base, activated=[(0, 3), (1, 2)]),
            dict(base, cached_experts={0}),
            dict(base, n_tokens=2),
        ]
        for kwargs in variants:
            scheduler.plan(**kwargs)
        scheduler.plan(0, [(0, 3), (1, 1)], set(), 1, pcie_backlog=0.5)
        scheduler.plan(0, [(0, 3), (1, 1)], set(), 1, cpu_backlog=0.5)
        scheduler.plan(0, [(0, 3), (1, 1)], set(), 1, inflight={0: 1.0})
        assert scheduler.cache_info()["hits"] == 0
        assert scheduler.cache_info()["misses"] == 8

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
        for expert in range(5):
            scheduler.plan(0, [(expert, 1)], set(), n_tokens=1)
        assert scheduler.cache_info()["size"] == 2
        disabled = self._scheduler(0)
        disabled.plan(0, [(0, 1)], set(), n_tokens=1)
        disabled.plan(0, [(0, 1)], set(), n_tokens=1)
        assert disabled.cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "capacity": 0
        }

    def test_invalid_inputs_still_raise(self):
        from repro.errors import SchedulingError

        scheduler = self._scheduler(16)
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 1), (0, 2)], set(), n_tokens=1)
        with pytest.raises(SchedulingError):
            scheduler.plan(0, [(0, 1)], set(), n_tokens=1, pcie_backlog=-1.0)


def test_engine_threads_fast_path_override():
    """EngineConfig.planner_fast_path overrides the scheduler config on
    the runtime's planner (both directions)."""
    cfg_on = EngineConfig(planner_fast_path=True, scheduler=SchedulerConfig(fast_path=False))
    cfg_off = EngineConfig(planner_fast_path=False)
    cfg_none = EngineConfig(scheduler=SchedulerConfig(fast_path=False))
    assert cfg_on.scheduler_config().fast_path is True
    assert cfg_off.scheduler_config().fast_path is False
    # False selects the full pre-fast-path baseline: memo off too, so
    # timings against it measure the from-scratch planner, not hits.
    assert cfg_off.scheduler_config().plan_cache_size == 0
    assert cfg_none.scheduler_config().fast_path is False
    assert cfg_none.scheduler_config().plan_cache_size > 0
    assert EngineConfig().scheduler_config().fast_path is True
    assert EngineConfig().scheduler_config().plan_cache_size > 0


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
    """Delta screening (fast scheduler) returns exactly the decisions of
    the unscreened reference-path prefetcher."""
    from repro.core.prefetch import ImpactDrivenPrefetcher, PredictedLayer

    cost = _RandomCost(1.0, 2.5, 4.0)

    def factory(n_tokens):
        return LayerCostOracle.for_model(cost, _MODEL, n_tokens)

    fast_sched = HybridScheduler(factory, SchedulerConfig(fast_path=True))
    ref_sched = HybridScheduler(
        factory, SchedulerConfig(fast_path=False, plan_cache_size=0)
    )
    screened = ImpactDrivenPrefetcher(
        fast_sched, lambda: 4.0, 4, lookahead=3, delta_screen=True
    )
    unscreened = ImpactDrivenPrefetcher(
        ref_sched, lambda: 4.0, 4, lookahead=3, delta_screen=False
    )
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
