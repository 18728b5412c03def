"""Inference engine: binds model, hardware substrate and a strategy.

:class:`~repro.engine.engine.InferenceEngine` drives prefill and decode
through the functional model while charging every operation to the
discrete-event clock. Scheduling behaviour is pluggable through
:class:`~repro.engine.strategy_base.Strategy` implementations — the
HybriMoE strategy lives in :mod:`repro.core.strategy`, the four
baselines in :mod:`repro.baselines`.
"""

from repro.engine.engine import EngineConfig, EngineRuntime, InferenceEngine
from repro.engine.factory import (
    available_strategies,
    make_engine,
    make_fleet,
    make_serving_engine,
    make_strategy,
)
from repro.engine.metrics import (
    GenerationResult,
    RequestRecord,
    ServingReport,
    StepMetrics,
    latency_percentiles,
)
from repro.engine.pipeline import BatchStepResult, SequenceStep, StepPipeline
from repro.engine.strategy_base import LayerContext, Strategy

__all__ = [
    "InferenceEngine",
    "EngineConfig",
    "EngineRuntime",
    "Strategy",
    "LayerContext",
    "StepMetrics",
    "GenerationResult",
    "RequestRecord",
    "ServingReport",
    "latency_percentiles",
    "StepPipeline",
    "SequenceStep",
    "BatchStepResult",
    "make_engine",
    "make_strategy",
    "make_serving_engine",
    "make_fleet",
    "available_strategies",
]
