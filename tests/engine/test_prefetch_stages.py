"""Prefetch windows open only in the stages a strategy declares.

``Strategy.prefetch_stages`` names the stages whose layers open a
prefetch window; in any other stage ``StepPipeline._issue_prefetches``
returns before it scores a single future layer. Counted here through
``gate_scores``: routing calls it once per layer, and each open window
once more per predicted layer, ``min(strategy.prefetch_lookahead,
layers left)`` of them.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.adapmoe import AdapMoEStrategy
from repro.core.strategy import HybriMoEStrategy
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from tests.conftest import SMALL_PROFILE

NUM_LAYERS = 5
#: The lookahead both prefetching strategies default to (the paper's 3).
LOOKAHEAD = 3


def window_calls(lookahead: int = LOOKAHEAD) -> int:
    """gate_scores calls of one step that opens a window at every layer."""
    return sum(min(lookahead, NUM_LAYERS - 1 - layer) for layer in range(NUM_LAYERS))


WINDOW_CALLS = window_calls()


def build_engine(tiny_config, strategy, profile=None, **config):
    model = ReferenceMoEModel(tiny_config.with_layers(NUM_LAYERS), seed=0)
    config = EngineConfig(cache_ratio=0.5, seed=0, **config)
    return InferenceEngine(
        model, strategy, profile or paper_testbed(), config, **SMALL_PROFILE
    )


def gate_calls_per_step(engine, decode_steps=3):
    """``(stage, gate_scores calls)`` of each step of one ``generate``."""
    model, pipeline = engine.model, engine.pipeline
    gate_scores, run_batch = model.gate_scores, pipeline.run_batch
    steps = []

    def counting_gate_scores(z, layer):
        steps[-1][1] += 1
        return gate_scores(z, layer)

    def recording_run_batch(sequences, stage, *args, **kwargs):
        steps.append([stage, 0])
        return run_batch(sequences, stage, *args, **kwargs)

    model.gate_scores = counting_gate_scores
    pipeline.run_batch = recording_run_batch
    engine.generate(np.arange(16), decode_steps=decode_steps)
    return [tuple(step) for step in steps]


NON_PREFETCHING = {
    "ktransformers": lambda: make_strategy("ktransformers"),
    "llamacpp": lambda: make_strategy("llamacpp"),
    "ondemand": lambda: make_strategy("ondemand"),
    "hybrimoe[baseline]": lambda: HybriMoEStrategy(False, False, False),
    "hybrimoe[sched]": lambda: HybriMoEStrategy(True, False, False),
    "hybrimoe[cache]": lambda: HybriMoEStrategy(False, False, True),
    "hybrimoe[sched+cache]": lambda: HybriMoEStrategy(True, False, True),
}


class TestDeclarations:
    def test_stage_sets(self):
        assert HybriMoEStrategy().prefetch_stages == {"decode"}
        assert HybriMoEStrategy(False, True, False).prefetch_stages == {"decode"}
        assert AdapMoEStrategy.prefetch_stages == {"prefill", "decode"}
        for build in NON_PREFETCHING.values():
            assert build().prefetch_stages == frozenset()

    def test_lookahead_defaults(self):
        assert HybriMoEStrategy().prefetch_lookahead == LOOKAHEAD
        assert AdapMoEStrategy().prefetch_lookahead == LOOKAHEAD


class TestWindowCalls:
    @pytest.mark.parametrize(
        "strategy", [HybriMoEStrategy, lambda: HybriMoEStrategy(False, True, False)],
        ids=["hybrimoe", "hybrimoe[prefetch]"],
    )
    def test_hybrimoe_scores_decode_windows_only(self, tiny_config, strategy):
        engine = build_engine(tiny_config, strategy())
        assert gate_calls_per_step(engine) == [
            ("prefill", NUM_LAYERS),
            *[("decode", NUM_LAYERS + WINDOW_CALLS)] * 3,
        ]

    @pytest.mark.parametrize("lookahead", [1, 2])
    def test_hybrimoe_lookahead_sets_window_depth(self, tiny_config, lookahead):
        engine = build_engine(tiny_config, make_strategy("hybrimoe", lookahead=lookahead))
        assert engine.strategy._prefetcher.lookahead == lookahead
        assert gate_calls_per_step(engine) == [
            ("prefill", NUM_LAYERS),
            *[("decode", NUM_LAYERS + window_calls(lookahead))] * 3,
        ]

    def test_hybrimoe_prefill_issues_no_prefetch(self, tiny_config):
        engine = build_engine(tiny_config, HybriMoEStrategy())
        engine.generate(np.arange(16), decode_steps=0)
        assert engine.runtime.prefetch_issued == 0
        labels = [iv.label for iv in engine.runtime.clock.pcie.intervals]
        assert not any("prefetch" in label for label in labels)

    def test_adapmoe_scores_windows_in_both_stages(self, tiny_config):
        engine = build_engine(tiny_config, AdapMoEStrategy())
        assert gate_calls_per_step(engine) == [
            ("prefill", NUM_LAYERS + WINDOW_CALLS),
            *[("decode", NUM_LAYERS + WINDOW_CALLS)] * 3,
        ]

    @pytest.mark.parametrize("name", NON_PREFETCHING)
    def test_non_prefetching_strategy_routes_only(self, tiny_config, name):
        engine = build_engine(tiny_config, NON_PREFETCHING[name]())
        assert gate_calls_per_step(engine) == [
            ("prefill", NUM_LAYERS),
            *[("decode", NUM_LAYERS)] * 3,
        ]


def prefetch_calls(engine, decode_steps=3):
    """``(ctx, predictions, budget_s, layer_span_s, backlog_s)`` of every
    ``prefetch_requests`` call of one ``generate``."""
    strategy = engine.strategy
    prefetch_requests = strategy.prefetch_requests
    calls = []

    def recording(ctx, predictions, budget_s, layer_span_s, backlog_s):
        calls.append((ctx, predictions, budget_s, layer_span_s, backlog_s))
        return prefetch_requests(
            ctx, predictions, budget_s, layer_span_s=layer_span_s, backlog_s=backlog_s
        )

    strategy.prefetch_requests = recording
    engine.generate(np.arange(16), decode_steps=decode_steps)
    return calls


class TestWindowShape:
    """A window opened at layer ``l`` predicts layers ``l+1 ..
    min(l+lookahead, last layer)`` and budgets ``lookahead`` layer spans
    of PCIe time, less the link's backlog."""

    @pytest.mark.parametrize("lookahead", [1, 2, 3, 4, 5])
    def test_window_predicts_the_next_lookahead_layers(self, tiny_config, lookahead):
        engine = build_engine(tiny_config, make_strategy("hybrimoe", lookahead=lookahead))
        calls = prefetch_calls(engine)
        assert calls
        for ctx, predictions, *_ in calls:
            last = min(ctx.layer + lookahead, NUM_LAYERS - 1)
            assert [p.layer for p in predictions] == list(range(ctx.layer + 1, last + 1))
            assert all(p.n_tokens == ctx.n_tokens for p in predictions)

    @pytest.mark.parametrize("cpu_cache_capacity", [None, 4], ids=["untiered", "tiered"])
    @pytest.mark.parametrize("lookahead", [1, 2, 3, 4, 5])
    def test_budget_is_lookahead_spans_less_backlog(
        self, tiny_config, lookahead, cpu_cache_capacity
    ):
        # A 1 GB/s host-to-device link queues loads and prefetches past
        # the layer barrier, so the backlog term is exercised, not just
        # zero. (Demotions ride the device-to-host lane and add none.)
        engine = build_engine(
            tiny_config,
            make_strategy("hybrimoe", lookahead=lookahead),
            replace(paper_testbed(), pcie_bw=1e9),
            cpu_cache_capacity=cpu_cache_capacity,
        )
        calls = prefetch_calls(engine)
        assert calls
        for _ctx, _predictions, budget, layer_span, backlog in calls:
            assert backlog >= 0.0
            assert budget == lookahead * layer_span - backlog
            assert budget > 0.0
        assert any(backlog > 0.0 for *_, backlog in calls)

    def test_adapmoe_windows_in_both_stages(self, tiny_config):
        engine = build_engine(tiny_config, AdapMoEStrategy())
        calls = prefetch_calls(engine)
        assert {ctx.stage for ctx, *_ in calls} == {"prefill", "decode"}
        for ctx, predictions, *_ in calls:
            last = min(ctx.layer + LOOKAHEAD, NUM_LAYERS - 1)
            assert [p.layer for p in predictions] == list(range(ctx.layer + 1, last + 1))

    @pytest.mark.parametrize("cpu_cache_capacity", [None, 4])
    def test_predictions_carry_the_live_residency(self, tiny_config, cpu_cache_capacity):
        """Cached experts are the GPU tier's residents of that layer and
        spilled ones are resident in no tier; untiered, none spill."""
        model = ReferenceMoEModel(tiny_config.with_layers(NUM_LAYERS), seed=0)
        config = EngineConfig(cache_ratio=0.25, seed=0, cpu_cache_capacity=cpu_cache_capacity)
        engine = InferenceEngine(
            model, HybriMoEStrategy(), paper_testbed(), config, **SMALL_PROFILE
        )
        cache = engine.runtime.cache
        strategy = engine.strategy
        prefetch_requests = strategy.prefetch_requests
        spilled_seen = []

        def checking(ctx, predictions, budget_s, **kwargs):
            experts = range(tiny_config.num_routed_experts)
            for p in predictions:
                assert p.cached_experts == cache.cached_experts_of_layer(p.layer)
                if cpu_cache_capacity is None:
                    assert p.spilled_experts == frozenset()
                else:
                    assert p.spilled_experts == cache.spilled_experts(p.layer, experts)
                    assert not p.spilled_experts & p.cached_experts
                spilled_seen.append(p.spilled_experts)
            return prefetch_requests(ctx, predictions, budget_s, **kwargs)

        strategy.prefetch_requests = checking
        engine.generate(np.arange(16), decode_steps=3)
        assert spilled_seen
        assert any(spilled_seen) == (cpu_cache_capacity is not None)
