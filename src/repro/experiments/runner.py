"""Single-run driver shared by all experiments."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.engine.engine import EngineConfig
from repro.engine.factory import make_engine
from repro.engine.metrics import GenerationResult
from repro.models.model import ReferenceMoEModel
from repro.models.presets import get_preset
from repro.workloads.generator import WorkloadSpec

__all__ = ["run_workload", "cached_model"]


@lru_cache(maxsize=16)
def cached_model(
    model_name: str, num_layers: int | None, seed: int
) -> ReferenceMoEModel:
    """Memoised functional-model construction.

    Model weights are immutable and decode state lives outside the
    model, so engines can safely share one instance; the grids in
    Figs. 7/8 reuse each (model, seed) dozens of times.
    """
    config = get_preset(model_name, num_layers=num_layers)
    return ReferenceMoEModel(config, seed=seed)


def run_workload(
    model: str,
    strategy: str,
    cache_ratio: float,
    workload: WorkloadSpec,
    num_layers: int | None = None,
    seed: int = 0,
    hardware: str = "paper",
    strategy_kwargs: dict | None = None,
    engine_config: EngineConfig | None = None,
) -> GenerationResult:
    """Run one workload on a fresh engine and return its metrics.

    Every run constructs a new engine (cold clock, freshly warmed
    cache) so results are independent, as the paper's per-configuration
    measurements are.
    """
    engine = make_engine(
        model=cached_model(model, num_layers, seed),
        strategy=strategy,
        cache_ratio=cache_ratio,
        hardware=hardware,
        num_layers=num_layers,
        seed=seed,
        engine_config=engine_config,
        strategy_kwargs=strategy_kwargs or {},
    )
    return engine.generate(
        np.asarray(workload.prompt_tokens), decode_steps=workload.decode_steps
    )
