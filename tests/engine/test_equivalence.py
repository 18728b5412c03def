"""Functional equivalence: scheduled execution == reference forward.

The central correctness claim of the whole system: no matter which
strategy schedules the experts (and therefore which simulated device
"computes" them, in what order, with what transfers), the numerical
output must match the reference model's plain forward pass.
"""

import numpy as np
import pytest

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from tests.conftest import SMALL_PROFILE

STRATEGIES = ["hybrimoe", "ktransformers", "adapmoe", "llamacpp", "ondemand"]


@pytest.mark.parametrize("strategy_name", STRATEGIES)
def test_prefill_hidden_states_match_reference(
    tiny_config, prompt_tokens, strategy_name
):
    reference = ReferenceMoEModel(tiny_config, seed=0)
    ref_hidden, _, _ = reference.forward(prompt_tokens)

    model = ReferenceMoEModel(tiny_config, seed=0)
    config = EngineConfig(cache_ratio=0.25, seed=0)
    engine = InferenceEngine(
        model, make_strategy(strategy_name), paper_testbed(), config, **SMALL_PROFILE
    )
    hidden, _ = engine._run_step(prompt_tokens, "prefill")
    np.testing.assert_allclose(hidden, ref_hidden, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("strategy_name", ["hybrimoe", "ktransformers"])
def test_decode_trajectory_matches_reference(tiny_config, prompt_tokens, strategy_name):
    """Greedy decode must produce the same token trajectory regardless
    of scheduling strategy."""
    reference = ReferenceMoEModel(tiny_config, seed=0)
    hidden, _, state = reference.forward(prompt_tokens)
    ref_tokens = []
    last = hidden[-1]
    for _ in range(4):
        token = reference.greedy_next_token(last)
        ref_tokens.append(token)
        hidden, _, state = reference.forward(np.array([token]), state)
        last = hidden[-1]

    model = ReferenceMoEModel(tiny_config, seed=0)
    config = EngineConfig(cache_ratio=0.25, seed=0)
    engine = InferenceEngine(
        model, make_strategy(strategy_name), paper_testbed(), config, **SMALL_PROFILE
    )
    eng_hidden, _ = engine._run_step(prompt_tokens, "prefill")
    eng_tokens = []
    last = eng_hidden[-1]
    for _ in range(4):
        token = engine.model.greedy_next_token(last)
        eng_tokens.append(token)
        eng_hidden, _ = engine._run_step(np.array([token]), "decode")
        last = eng_hidden[-1]

    assert eng_tokens == ref_tokens


@pytest.mark.parametrize("cache_ratio", [0.0, 0.25, 0.75, 1.0])
def test_equivalence_holds_at_all_cache_ratios(tiny_config, prompt_tokens, cache_ratio):
    reference = ReferenceMoEModel(tiny_config, seed=0)
    ref_hidden, _, _ = reference.forward(prompt_tokens)
    model = ReferenceMoEModel(tiny_config, seed=0)
    config = EngineConfig(cache_ratio=cache_ratio, seed=0)
    engine = InferenceEngine(
        model, make_strategy("hybrimoe"), paper_testbed(), config, **SMALL_PROFILE
    )
    hidden, _ = engine._run_step(prompt_tokens, "prefill")
    np.testing.assert_allclose(hidden, ref_hidden, rtol=1e-5, atol=1e-6)

