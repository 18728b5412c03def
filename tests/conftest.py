"""Shared fixtures: small models, toy cost models, standard oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tasks import LayerCostOracle
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.platform_presets import paper_testbed
from repro.models.config import ExpertShape, MoEModelConfig
from repro.models.model import ReferenceMoEModel

#: Warmup profile size of the small test engines, and of the goldens
#: recorded on them: ``InferenceEngine(..., **SMALL_PROFILE)``.
SMALL_PROFILE = {"profile_prompt_len": 8, "profile_decode_steps": 2}


@pytest.fixture
def tiny_config() -> MoEModelConfig:
    """A DeepSeek-shaped miniature: 3 layers, 8 experts, top-2, 1 shared."""
    return MoEModelConfig(
        name="tiny",
        num_layers=3,
        num_shared_experts=1,
        num_routed_experts=8,
        num_activated_experts=2,
        routed_expert_shape=ExpertShape(256, 512),
        shared_expert_shape=ExpertShape(256, 512),
    )


@pytest.fixture
def tiny_model(tiny_config) -> ReferenceMoEModel:
    return ReferenceMoEModel(
        tiny_config, d_model=16, d_ff=32, vocab_size=128, seed=0
    )


@pytest.fixture
def paper_cost() -> AnalyticCostModel:
    return AnalyticCostModel(paper_testbed())


class ToyCostModel:
    """Deterministic unit-scale cost model mirroring the Fig. 5 example.

    GPU compute is constant (2), CPU compute is 1.5 per unit load,
    transfers take 3, shared blocks take 2 per shared expert. The CPU
    warmup penalty is configurable for first-task tests.
    """

    def __init__(self, cpu_warmup: float = 0.0) -> None:
        self.cpu_warmup = cpu_warmup

    def expert_bytes(self, shape) -> float:
        return float(shape.param_count)

    def gpu_expert_time(self, shape, tokens: int) -> float:
        return 2.0 if tokens > 0 else 0.0

    def cpu_expert_time(self, shape, tokens: int, first_task: bool = False) -> float:
        if tokens == 0:
            return 0.0
        return 1.5 * tokens + (self.cpu_warmup if first_task else 0.0)

    def transfer_time(self, shape) -> float:
        return 3.0

    def disk_transfer_time(self, shape) -> float:
        return 4.0

    def attention_time(self, d_model: int, tokens: int, device: str = "gpu") -> float:
        if tokens == 0:
            return 0.0
        return 0.5 if device == "gpu" else 2.0


@pytest.fixture
def toy_cost() -> ToyCostModel:
    return ToyCostModel()


@pytest.fixture
def toy_oracle_factory(tiny_config, toy_cost):
    """``(n_tokens) -> LayerCostOracle`` over the toy cost model."""

    def factory(n_tokens: int) -> LayerCostOracle:
        return LayerCostOracle.for_model(toy_cost, tiny_config, n_tokens)

    return factory


@pytest.fixture
def prompt_tokens() -> np.ndarray:
    return np.arange(24, dtype=np.int64)


#: A valid non-default value per spec knob, with the companion knobs
#: another knob's range check demands. Knobs missing here get a value
#: derived from their default, so a new numeric or bool knob needs no
#: edit to the knob-wiring tests (factories and CLI).
KNOB_SAMPLES = {
    "model": {"model": "mixtral"},
    "num_layers": {"num_layers": 3},
    "strategy": {"strategy": "ondemand"},
    "hardware": {"hardware": "edge"},
    "cpu_cache_capacity": {"cpu_cache_capacity": 4},
    "cpu_cache_policy": {"cpu_cache_policy": "lfu"},
    "prefill_chunk_tokens": {"prefill_chunk_tokens": 32},
    "request_timeout_s": {"request_timeout_s": 5.0},
    "shed_queue_depth": {"shed_queue_depth": 12},
    "shed_resume_depth": {"shed_queue_depth": 12, "shed_resume_depth": 4},
    "router": {"router": "least_loaded"},
}


#: Spec knobs with one accepted value: no non-default sample exists, so
#: the knob-wiring tests skip them and the CLI spells none of them.
#: ``placement`` is only ``"round_robin"``; it stays a field so saved
#: specs and sweep JSON carrying the key still load.
SINGLE_VALUED_KNOBS = frozenset({"placement"})


@pytest.fixture
def knob_sample():
    """``(knob, dataclass field) -> {knob: non-default value, ...}``."""

    def sample(knob: str, field) -> dict:
        if knob in KNOB_SAMPLES:
            return KNOB_SAMPLES[knob]
        default = field.default
        if isinstance(default, bool):
            return {knob: not default}
        if isinstance(default, int):
            return {knob: default + 1}
        if isinstance(default, float):
            return {knob: default / 2}
        pytest.fail(f"knob {knob!r} needs a non-default entry in KNOB_SAMPLES")

    return sample
