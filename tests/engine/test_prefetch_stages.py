"""Prefetch windows open only in the stages a strategy declares.

``Strategy.prefetch_stages`` names the stages whose layers open a
prefetch window; in any other stage ``StepPipeline._issue_prefetches``
returns before it scores a single future layer. Counted here through
``gate_scores``: routing calls it once per layer, and each open window
once more per predicted layer, ``min(strategy.prefetch_lookahead,
layers left)`` of them (no predictor bound).
"""

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


def build_engine(tiny_config, strategy):
    model = ReferenceMoEModel(tiny_config.with_layers(NUM_LAYERS), seed=0)
    config = EngineConfig(cache_ratio=0.5, seed=0)
    return InferenceEngine(model, strategy, paper_testbed(), config, **SMALL_PROFILE)


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
