"""The inference engine: simulated hybrid execution of a functional MoE.

:class:`InferenceEngine` runs real numpy forward passes (so outputs are
bit-comparable with the reference model) while charging every
operation — attention, expert compute, weight transfers — to a
three-resource discrete-event clock using paper-scale cost models. A
pluggable :class:`~repro.engine.strategy_base.Strategy` decides the
per-layer plans, cache management and prefetching; the engine enforces
plan validity, lock/arrival semantics and collects TTFT/TBT metrics.

Two cost models are in play, mirroring the real system:

- the **actual** model (the analytic roofline) drives executed
  durations;
- the **estimated** model (fitted by the warmup phase, §IV-A) drives
  every scheduling decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.base import available_policies, make_policy
from repro.cache.manager import ExpertCache
from repro.cache.sharded import ShardedCacheManager
from repro.cache.tiered import TieredCacheManager
from repro.core.hybrid_scheduler import HybridScheduler
from repro.core.tasks import LayerCostOracle
from repro.engine.metrics import GenerationResult, StepMetrics
from repro.engine.pipeline import StepPipeline
from repro.engine.strategy_base import Strategy
from repro.errors import ConfigError
from repro.hardware.cost_model import AnalyticCostModel, CostModel
from repro.hardware.faults import DegradationState, DegradedCostModel
from repro.hardware.platform_presets import paper_testbed
from repro.hardware.simulator import ThreeResourceClock
from repro.hardware.warmup import WarmupCalibrator
from repro.models.model import ReferenceMoEModel, SequenceStateStore
from repro.routing.generator import WarmupProfile, warmup_profile
from repro.routing.trace import RoutingTrace
from repro.rng import derive_rng

__all__ = ["EngineConfig", "EngineRuntime", "InferenceEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """The knobs every engine reads, whatever its strategy.

    :class:`~repro.scenarios.spec.EngineSpec` inherits these fields
    (and the range checks below); a framework's own policy — HybriMoE's
    planner search and prefetch lookahead — is an argument of its
    strategy instead.

    Attributes
    ----------
    cache_ratio:
        Fraction of all routed experts that fit in GPU memory (the
        paper's "GPU expert cache ratio": 25/50/75%).
    seed:
        Root seed for the model weights, profiling workloads and decode
        sampling.
    num_gpus:
        Simulated GPU devices. The expert cache is one shard per
        device (one :class:`~repro.cache.manager.ExpertCache` each,
        the aggregate ``cache_ratio`` budget split evenly) and the
        pipeline dispatches each expert to its home device; 1 (the
        paper's testbed) is one shard holding everything.
    placement:
        Expert placement across GPUs. The only accepted value is
        ``"round_robin"``: an expert's home device is ``expert %
        num_gpus`` (:func:`~repro.cache.sharded.home_device`). The
        field stays because saved spec and sweep JSON, and the perf
        ledger's ``decode_pressured`` workload, carry the key.
    cpu_cache_capacity:
        Routed-expert slots of host DRAM (the CPU tier of the memory
        hierarchy). ``None`` (default) keeps the paper's unbounded CPU
        store — bit-identical to the historical two-tier engine,
        test-enforced. An integer caps DRAM residency: experts outside
        both caches are **spilled to disk** and pay a disk read (on the
        clock's shared disk link) before any CPU compute or PCIe
        transfer.
    cpu_cache_policy:
        Eviction policy of the DRAM tier, from the same registry as
        the GPU tier (``"lru"``, ``"lfu"``, ``"mrs"``).
    """

    cache_ratio: float = 0.5
    seed: int = 0
    num_gpus: int = 1
    placement: str = "round_robin"
    cpu_cache_capacity: int | None = None
    cpu_cache_policy: str = "lru"

    def __post_init__(self) -> None:
        if not 0.0 <= self.cache_ratio <= 1.0:
            raise ConfigError(f"cache_ratio must be in [0, 1], got {self.cache_ratio}")
        if self.num_gpus < 1:
            raise ConfigError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.placement != "round_robin":
            raise ConfigError(
                f"placement must be 'round_robin' (home device = expert % "
                f"num_gpus), got {self.placement!r}"
            )
        if self.cpu_cache_capacity is not None and self.cpu_cache_capacity < 0:
            raise ConfigError(
                f"cpu_cache_capacity must be non-negative, got "
                f"{self.cpu_cache_capacity}"
            )
        if self.cpu_cache_policy not in available_policies():
            known = ", ".join(available_policies())
            raise ConfigError(
                f"unknown cpu_cache_policy {self.cpu_cache_policy!r} "
                f"(known: {known})"
            )

    @property
    def tiered(self) -> bool:
        """Whether the engine runs the three-tier memory hierarchy."""
        return self.cpu_cache_capacity is not None


class EngineRuntime:
    """Shared state handed to strategies when they bind to an engine."""

    def __init__(
        self,
        model: ReferenceMoEModel,
        config: EngineConfig,
        cost_actual: CostModel,
        cost_estimated: CostModel,
        profile_sizes: tuple[int, int],
    ) -> None:
        self.model = model
        self.model_config = model.config
        self.config = config
        self.cost_actual = cost_actual
        self.cost_estimated = cost_estimated
        self.clock = ThreeResourceClock(config.num_gpus, disk=config.tiered)
        #: Prefetch effectiveness accounting (pure observation — no
        #: code path consults these): GPU prefetches issued, and how
        #: many were still resident when their layer activated them.
        self.prefetch_issued = 0
        self.prefetch_used = 0
        self._prefetch_pending: set[tuple[int, int]] = set()
        self.cache: ShardedCacheManager | TieredCacheManager | None = None
        #: Planner-side disk -> DRAM read estimate per routed expert
        #: (0 on two-tier engines, where disk is never consulted).
        if config.tiered:
            self.disk_fetch_est_s = cost_estimated.disk_transfer_time(
                model.config.routed_expert_shape
            )
        else:
            self.disk_fetch_est_s = 0.0
        #: Size ``(prompt_len, decode_steps)`` of the warmup profiling run.
        self.profile_sizes = profile_sizes
        #: The planner a strategy built and plans with, published for
        #: observers (HybriMoE's hybrid scheduler; None for baselines).
        self.scheduler: HybridScheduler | None = None
        # Oracles are frozen value objects deterministic per n_tokens;
        # memoizing them spares StepPipeline rebuilding an identical
        # oracle for every layer of every step.
        self._oracle_memo: dict[tuple[str, int], LayerCostOracle] = {}

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """Simulated GPU device count."""
        return self.config.num_gpus

    @property
    def tiered(self) -> bool:
        """Whether the engine runs the three-tier memory hierarchy."""
        return self.config.tiered

    # ------------------------------------------------------------------
    # oracles
    # ------------------------------------------------------------------
    #: Bound on the oracle memo (distinct batch token counts seen).
    _ORACLE_MEMO_LIMIT = 512

    def _oracle(self, kind: str, cost: CostModel, n_tokens: int) -> LayerCostOracle:
        key = (kind, n_tokens)
        oracle = self._oracle_memo.get(key)
        if oracle is None:
            if len(self._oracle_memo) >= self._ORACLE_MEMO_LIMIT:
                self._oracle_memo.clear()
            oracle = self._oracle_memo[key] = LayerCostOracle.for_model(
                cost, self.model_config, n_tokens
            )
        return oracle

    def estimated_oracle(self, n_tokens: int) -> LayerCostOracle:
        """Planner-side duration oracle for a step of ``n_tokens``."""
        return self._oracle("estimated", self.cost_estimated, n_tokens)

    def actual_oracle(self, n_tokens: int) -> LayerCostOracle:
        """Execution-side duration oracle for a step of ``n_tokens``."""
        return self._oracle("actual", self.cost_actual, n_tokens)

    def invalidate_cost_caches(self) -> None:
        """Drop every cached cost-model *output* (the model changed).

        Called when a degradation state lands on the engine's cost
        models: the scalar disk-read estimate is recomputed (a
        strategy's own caches, such as the hybrid scheduler's plan memo,
        are its :meth:`~repro.engine.strategy_base.Strategy.on_costs_changed`
        business). The oracle memo
        stays — :class:`~repro.core.tasks.LayerCostOracle` delegates
        every call to the (mutated-in-place) cost model, so cached
        oracles are never stale.
        """
        if self.config.tiered:
            self.disk_fetch_est_s = self.cost_estimated.disk_transfer_time(
                self.model_config.routed_expert_shape
            )

    # ------------------------------------------------------------------
    # capacity & profiling
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """GPU expert slots implied by the cache ratio."""
        total = self.model_config.total_routed_experts
        return int(round(self.config.cache_ratio * total))

    def _warmup_profile(self) -> WarmupProfile:
        return warmup_profile(self.model, self.config.seed, *self.profile_sizes)

    @property
    def warmup_trace(self) -> RoutingTrace:
        """The model's warmup profiling trace: shared by its engines, read-only."""
        return self._warmup_profile().trace

    def frequency_ranking(self) -> tuple[tuple[int, int], ...]:
        """``(layer, expert)`` keys by warmup activation frequency, desc."""
        return self._warmup_profile().ranking


class InferenceEngine:
    """Simulated hybrid CPU-GPU inference of one functional MoE model.

    Parameters
    ----------
    model:
        The functional model (routing + numerics substrate).
    strategy:
        Scheduling strategy instance (HybriMoE or a baseline).
    hardware_profile:
        Platform description; defaults to the paper's testbed.
    config:
        Engine knobs (cache ratio, seed, topology, ...).
    profile_prompt_len / profile_decode_steps:
        Size of the warmup profiling run behind the frequency ranking
        and MRS priming. Constructor arguments, not knobs: no factory,
        spec or flag sets them, and tests shrink them to keep small
        engines fast.
    """

    def __init__(
        self,
        model: ReferenceMoEModel,
        strategy: Strategy,
        hardware_profile=None,
        config: EngineConfig | None = None,
        *,
        profile_prompt_len: int = 32,
        profile_decode_steps: int = 8,
    ) -> None:
        if profile_prompt_len <= 0 or profile_decode_steps <= 0:
            raise ConfigError(
                f"warmup profile sizes must be positive, got "
                f"{profile_prompt_len}/{profile_decode_steps}"
            )
        self.config = config or EngineConfig()
        cost_actual = AnalyticCostModel(hardware_profile or paper_testbed())
        cost_estimated = WarmupCalibrator(cost_actual).calibrate(model.config)

        self.model = model
        self.strategy = strategy
        # Both cost models are wrapped for hardware fault injection
        # unconditionally: in the neutral state the wrapper returns the
        # base model's floats unchanged, so a fault-free engine stays
        # bit-identical to the historical construction. Wrapping here —
        # before the runtime and strategies bind — means every consumer
        # (scheduler oracles, prefetch lambdas, the executor) holds the
        # wrapper and sees degradation the moment it is applied.
        self.runtime = EngineRuntime(
            model,
            self.config,
            DegradedCostModel(cost_actual),
            DegradedCostModel(cost_estimated),
            (profile_prompt_len, profile_decode_steps),
        )
        strategy.bind(self.runtime)
        # One cache wiring for every platform: one shard per GPU behind
        # a manager (a single shard on the paper's testbed), under the
        # DRAM tier when host memory is capped.
        gpu_cache = strategy.cache_spec().build_sharded(self.config.num_gpus)
        if self.config.tiered:
            self.runtime.cache = TieredCacheManager(
                gpu_cache, self._build_cpu_tier()
            )
        else:
            self.runtime.cache = gpu_cache
        self.runtime.cache.validate()
        #: Batch-capable step executor; the serving layer drives it
        #: directly with many concurrent sequence states.
        self.pipeline = StepPipeline(model, strategy, self.runtime)
        #: Per-sequence decode states keyed by request id (multi-request
        #: serving); :meth:`generate` keeps its own private state below.
        self.states = SequenceStateStore(model)
        self._state = model.new_state()

    def _build_cpu_tier(self) -> ExpertCache:
        """The capacity-limited DRAM tier of the memory hierarchy.

        Engine-owned (not strategy-owned): host DRAM is a platform
        property shared by every scheduling strategy, unlike the GPU
        cache whose policy *is* part of each framework's design. The
        tier is warm-filled by warmup activation frequency — the
        hottest experts are DRAM-resident at start, mirroring a loader
        that streams the model in until host memory fills up.
        """
        policy_kwargs = {}
        if self.config.cpu_cache_policy == "mrs":
            policy_kwargs = {"top_p": 2 * self.model.config.num_activated_experts}
        tier = ExpertCache(
            self.config.cpu_cache_capacity,
            make_policy(self.config.cpu_cache_policy, **policy_kwargs),
        )
        tier.warm_fill(self.runtime.frequency_ranking())
        return tier

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(
        self,
        prompt_tokens: np.ndarray,
        decode_steps: int = 0,
    ) -> GenerationResult:
        """Run one prefill over the prompt plus ``decode_steps`` tokens.

        Decode tokens are the model's own continuations, sampled with a
        seeded temperature (greedy decoding collapses the functional
        model to a fixed point, which makes decode routing
        unrealistically cache-friendly).
        """
        prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        if prompt_tokens.ndim != 1 or prompt_tokens.size == 0:
            raise ConfigError("prompt_tokens must be a non-empty 1-D id array")
        if decode_steps < 0:
            raise ConfigError(f"decode_steps must be >= 0, got {decode_steps}")
        result = GenerationResult(
            model_name=self.model.config.name,
            strategy_name=self.strategy.name,
            cache_ratio=self.config.cache_ratio,
            prefill=None,
        )
        sample_rng = derive_rng(self.config.seed, "engine", "decode-sampling")
        hidden, metrics = self._run_step(prompt_tokens, "prefill")
        result.prefill = metrics
        last_hidden = hidden[-1]
        for _ in range(decode_steps):
            token = self.model.sample_next_token(last_hidden, sample_rng)
            hidden, metrics = self._run_step(np.array([token]), "decode")
            last_hidden = hidden[-1]
            result.decode_steps.append(metrics)
        cache = self._cache()
        result.total_hits = cache.stats.hits
        result.total_misses = cache.stats.misses
        return result

    def set_degradation(self, state: DegradationState) -> bool:
        """Apply a hardware degradation state to both cost models.

        Returns True when the state actually changed — in which case
        the runtime's scalar disk-read estimate is recomputed and the
        strategy is notified so it can drop or refresh what it derived
        from the old costs (HybriMoE: its planner's plan memo and
        duration tables, the prefetcher's disk lead-time estimate).
        Applying the neutral state to a never-degraded
        engine is a bit-exact no-op: nothing is invalidated and every
        duration stays byte-identical, which is what keeps an unfired
        :class:`~repro.hardware.faults.FaultSchedule`
        indistinguishable from no schedule.
        """
        actual: DegradedCostModel = self.runtime.cost_actual
        estimated: DegradedCostModel = self.runtime.cost_estimated
        changed = actual.set_state(state)
        changed = estimated.set_state(state) or changed
        if changed:
            self.runtime.invalidate_cost_caches()
            self.strategy.on_costs_changed()
        return changed

    def decode_only(self, num_steps: int) -> GenerationResult:
        """Convenience: an 8-token prefill then ``num_steps`` decode tokens."""
        rng = derive_rng(self.config.seed, "engine", "decode-only-prompt")
        prompt = rng.integers(0, self.model.vocab_size, size=8)
        return self.generate(prompt, decode_steps=num_steps)

    # ------------------------------------------------------------------
    # the per-step pipeline
    # ------------------------------------------------------------------
    def _cache(self) -> ShardedCacheManager | TieredCacheManager:
        return self.pipeline._cache()

    def _run_step(
        self, tokens: np.ndarray, stage: str
    ) -> tuple[np.ndarray, StepMetrics]:
        """One forward step of the engine's private generation sequence.

        The mechanics live in :class:`~repro.engine.pipeline.StepPipeline`
        (which also fuses steps across many sequences for serving); this
        wrapper binds it to ``generate``'s single decode state.
        """
        return self.pipeline.run_step(tokens, self._state, stage)
