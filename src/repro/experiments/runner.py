"""Single-run driver shared by all experiments."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.engine.factory import make_engine
from repro.engine.metrics import GenerationResult
from repro.models.presets import preset_model
from repro.rng import derive_rng
from repro.routing.generator import generate_trace
from repro.routing.trace import RoutingTrace
from repro.workloads.generator import WorkloadSpec

__all__ = ["run_workload", "cached_model", "cached_trace"]


#: ``preset_model(model_name, num_layers, seed)``, kept alive: the grids in
#: Figs. 7/8 reuse each (model, seed) dozens of times, one engine at a time,
#: and a weight set (with its warmup profile) lives only while a model on it
#: does. Engines built by name meanwhile run on the pinned weight set.
cached_model = lru_cache(maxsize=16)(preset_model)


@lru_cache(maxsize=16)
def cached_trace(
    model_name: str, num_layers: int | None, decode_steps: int, seed: int
) -> RoutingTrace:
    """Memoised routing trace of a 64-token prompt plus ``decode_steps``.

    Every consumer (the activation / reuse statistics of Fig. 3a/b, the
    cache replays of Fig. 9 and the MRS ablation) only reads the trace,
    so one instance serves them all; its arrays are read-only.
    """
    model = cached_model(model_name, num_layers, seed)
    rng = derive_rng(seed, "figures", "trace-prompt", model_name)
    prompt = rng.integers(0, model.vocab_size, size=64)
    return generate_trace(model, prompt, decode_steps=decode_steps, seed=seed)


def run_workload(
    model: str,
    strategy: str,
    cache_ratio: float,
    workload: WorkloadSpec,
    num_layers: int | None = None,
    seed: int = 0,
    strategy_kwargs: dict | None = None,
) -> GenerationResult:
    """Run one workload on a fresh engine and return its metrics.

    Every run constructs a new engine (cold clock, freshly warmed
    cache) on the paper's hardware so results are independent, as the
    paper's per-configuration measurements are. ``strategy_kwargs``
    are the strategy's constructor arguments (HybriMoE's Table III
    toggles, its ``scheduler`` and ``lookahead``).
    """
    engine = make_engine(
        cached_model(model, num_layers, seed),
        strategy,
        cache_ratio=cache_ratio,
        seed=seed,
        strategy_kwargs=strategy_kwargs,
    )
    return engine.generate(
        np.asarray(workload.prompt_tokens), decode_steps=workload.decode_steps
    )
