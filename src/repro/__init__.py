"""HybriMoE reproduction: hybrid CPU-GPU scheduling for MoE inference.

A simulation-grounded reproduction of *HybriMoE: Hybrid CPU-GPU
Scheduling and Cache Management for Efficient MoE Inference* (DAC
2025). The package provides:

- a functional numpy MoE model family matching the paper's three
  evaluated architectures (:mod:`repro.models`);
- an analytic hardware substrate with discrete-event CPU/GPU/PCIe
  timelines (:mod:`repro.hardware`);
- the HybriMoE scheduling system — schedule-simulation planning,
  impact-driven prefetching, score-aware MRS caching
  (:mod:`repro.core`, :mod:`repro.cache`) — generalised to a tiered
  GPU/DRAM/disk memory hierarchy for models that outgrow host RAM;
- four baseline frameworks re-implemented on the same substrate
  (:mod:`repro.baselines`);
- an inference engine with TTFT/TBT metrics (:mod:`repro.engine`),
  synthetic workloads with Poisson/trace arrival processes
  (:mod:`repro.workloads`) and the experiment harness regenerating
  every paper table and figure (:mod:`repro.experiments`);
- a multi-request serving layer — request queueing, FCFS admission,
  continuous batching of decode steps through one shared expert cache,
  and per-request serving metrics (:mod:`repro.serving`);
- a cluster-scale fleet layer — M replica engines behind a front-end
  router with pluggable policies (round-robin, least-loaded,
  cache-affinity), replica fault injection with lossless failover, and
  threshold autoscaling (:mod:`repro.fleet`).

Quickstart::

    from repro import make_engine
    engine = make_engine(model="deepseek", strategy="hybrimoe",
                         cache_ratio=0.25, num_layers=8)
    result = engine.decode_only(num_steps=16)
    print(result.mean_tbt, result.hit_rate)

Serving quickstart::

    from repro import make_serving_engine
    from repro.workloads import serving_workload
    serving = make_serving_engine(strategy="hybrimoe", num_layers=8)
    report = serving.serve_trace(serving_workload(8, arrival_rate=2.0))
    print(report.summary())

Scenario quickstart (the spec-based configuration API)::

    from repro import get_scenario, run_sweep
    report = get_scenario("chat-multiturn").run(seed=0)
    sweep = run_sweep(["chat-multiturn", "edge-decode"], "out/sweep",
                      strategies=["hybrimoe", "ondemand"])
    print(sweep.rows())
"""

from repro.engine import (
    EngineConfig,
    GenerationResult,
    InferenceEngine,
    ServingReport,
    available_strategies,
    make_engine,
    make_fleet,
    make_serving_engine,
    make_strategy,
)
from repro.fleet import AutoscaleConfig, FleetConfig, FleetReport, FleetRouter, available_routers
from repro.hardware.faults import Fault, FaultSchedule
from repro.serving import Request, ServingConfig, ServingEngine
from repro.errors import (
    CacheError,
    ConfigError,
    ReproError,
    SchedulingError,
    SimulationError,
    TraceError,
)
from repro.models import MoEModelConfig, ReferenceMoEModel, get_preset
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    EngineSpec,
    FleetSpec,
    ScenarioSpec,
    ServingSpec,
    SweepReport,
    WorkloadRecipe,
    available_scenarios,
    get_scenario,
    register_scenario,
    run_sweep,
)
from repro.version import __version__

__all__ = [
    "__version__",
    "make_engine",
    "make_strategy",
    "make_serving_engine",
    "make_fleet",
    "available_strategies",
    "available_routers",
    "EngineSpec",
    "ServingSpec",
    "FleetSpec",
    "WorkloadRecipe",
    "ScenarioSpec",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "BUILTIN_SCENARIOS",
    "run_sweep",
    "SweepReport",
    "InferenceEngine",
    "ServingEngine",
    "FleetRouter",
    "FleetReport",
    "Fault",
    "FaultSchedule",
    "AutoscaleConfig",
    "ServingConfig",
    "FleetConfig",
    "ServingReport",
    "Request",
    "EngineConfig",
    "GenerationResult",
    "ReferenceMoEModel",
    "MoEModelConfig",
    "get_preset",
    "ReproError",
    "ConfigError",
    "SchedulingError",
    "CacheError",
    "SimulationError",
    "TraceError",
]
