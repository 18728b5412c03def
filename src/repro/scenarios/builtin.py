"""Built-in scenarios: the "does the win hold under X?" battery.

Each scenario below used to be (or would have become) a bespoke
benchmark script with its own flag soup. As registry entries they are
one-liners to run, sweep and compare::

    repro sweep --scenarios chat-multiturn,edge-decode --strategies hybrimoe,ondemand

Sizes are chosen so a full-default cell finishes in seconds; CI smoke
runs cap them further with ``--requests`` / ``--steps``. Importing
:mod:`repro.scenarios` registers everything here exactly once.
"""

from __future__ import annotations

from repro.scenarios.registry import register_scenario
from repro.scenarios.scenario import ScenarioSpec
from repro.scenarios.spec import EngineSpec, FleetSpec, ServingSpec, WorkloadRecipe

__all__ = ["BUILTIN_SCENARIOS"]


def _serving(engine: EngineSpec, **serving_kwargs) -> FleetSpec:
    """A single-engine (one replica) system around ``engine``."""
    return FleetSpec(serving=ServingSpec(engine=engine, **serving_kwargs))


register_scenario(
    ScenarioSpec(
        name="chat-multiturn",
        description=(
            "multi-turn chat sessions whose turns share their full prompt "
            "prefix (cross-turn expert-cache reuse)"
        ),
        workload=WorkloadRecipe(
            kind="chat",
            params={
                "num_sessions": 4,
                "turns_per_session": 3,
                "session_rate": 0.5,
                "think_time_s": 2.0,
                "decode_steps": 8,
            },
        ),
        fleet=_serving(
            EngineSpec(strategy="hybrimoe", cache_ratio=0.4, num_layers=6)
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="diurnal-overload",
        description=(
            "sinusoidal day/night arrivals whose crest overloads the "
            "single engine (queueing-delay stress)"
        ),
        workload=WorkloadRecipe(
            kind="diurnal",
            params={
                "num_requests": 20,
                "base_rate": 2.0,
                "peak_rate": 12.0,
                "period": 20.0,
                "decode_steps": 8,
            },
        ),
        fleet=_serving(
            EngineSpec(strategy="hybrimoe", cache_ratio=0.4, num_layers=6),
            max_batch_size=4,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="bursty-shed",
        description=(
            "flash-crowd bursts against watermark overload shedding "
            "(hysteresis between depth 12 and 6)"
        ),
        workload=WorkloadRecipe(
            kind="bursty",
            params={
                "num_requests": 20,
                "base_rate": 1.5,
                "burst_rate": 16.0,
                "burst_every": 10.0,
                "burst_duration": 2.0,
                "decode_steps": 8,
            },
        ),
        fleet=_serving(
            EngineSpec(strategy="hybrimoe", cache_ratio=0.4, num_layers=6),
            max_batch_size=4,
            shed_queue_depth=12,
            shed_resume_depth=6,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="tenant-mix",
        description=(
            "25/75 interactive/batch tenant mix with TBT deadlines, "
            "chunked prefill and cooperative preemption"
        ),
        workload=WorkloadRecipe(
            kind="poisson",
            params={
                "num_requests": 16,
                "arrival_rate": 8.0,
                "decode_steps": 8,
                "priority_mix": {"interactive": 0.25, "batch": 0.75},
                "class_deadlines": {"interactive": 0.5},
            },
        ),
        fleet=_serving(
            EngineSpec(strategy="hybrimoe", cache_ratio=0.4, num_layers=6),
            max_batch_size=4,
            prefill_chunk_tokens=32,
            preemption=True,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="disk-slow-spill",
        description=(
            "SATA-class disk tier under a capacity-limited DRAM cache "
            "(spill-hostile tiered memory)"
        ),
        workload=WorkloadRecipe(
            kind="poisson",
            params={"num_requests": 12, "arrival_rate": 4.0, "decode_steps": 8},
        ),
        fleet=_serving(
            EngineSpec(
                strategy="hybrimoe",
                cache_ratio=0.25,
                num_layers=6,
                hardware="disk-slow",
                cpu_cache_capacity=24,
                cpu_cache_policy="lru",
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="edge-decode",
        description=(
            "edge-class SoC profile (weak iGPU, shared LPDDR, UFS flash): "
            "every CPU/GPU/transfer ratio shifts"
        ),
        workload=WorkloadRecipe(
            kind="poisson",
            params={"num_requests": 12, "arrival_rate": 2.0, "decode_steps": 12},
        ),
        fleet=_serving(
            EngineSpec(
                strategy="hybrimoe",
                cache_ratio=0.25,
                num_layers=6,
                hardware="edge",
            ),
            max_batch_size=4,
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="skewed-fleet",
        description=(
            "two hot tenant profiles over a 2-replica fleet with "
            "cache-affinity routing (replica specialisation)"
        ),
        workload=WorkloadRecipe(
            kind="skewed",
            params={
                "num_requests": 16,
                "arrival_rate": 8.0,
                "num_profiles": 2,
                "prompt_length": 12,
                "decode_steps": 8,
            },
        ),
        fleet=FleetSpec(
            serving=ServingSpec(
                engine=EngineSpec(
                    strategy="hybrimoe", cache_ratio=0.4, num_layers=6
                ),
                max_batch_size=4,
            ),
            replicas=2,
            router="cache_affinity",
        ),
    )
)

#: Names registered by this module, in registration order.
BUILTIN_SCENARIOS: tuple[str, ...] = (
    "chat-multiturn",
    "diurnal-overload",
    "bursty-shed",
    "tenant-mix",
    "disk-slow-spill",
    "edge-decode",
    "skewed-fleet",
)
