"""The HybriMoE strategy: all three techniques with ablation toggles.

``HybriMoEStrategy(scheduling=…, prefetching=…, caching=…)`` maps
directly onto the rows of the paper's Table III:

===============================  ==========================================
Configuration                    Toggles
===============================  ==========================================
Baseline (kTransformers-like)    all False
Baseline + Scheduling            ``scheduling=True``
Baseline + Prefetching           ``prefetching=True``
Baseline + Caching               ``caching=True``
All (HybriMoE)                   all True
===============================  ==========================================

- **scheduling** — replace the fixed mapping with the schedule-
  simulation planner of §IV-B (transfer search + CPU work stealing);
- **prefetching** — enable the impact-driven prefetcher of §IV-C (decode);
- **caching** — replace static frequency pinning with the dynamic
  MRS cache of §IV-D.

``scheduler`` (the §IV-B search's
:class:`~repro.core.hybrid_scheduler.SchedulerConfig`) and
``lookahead`` (layers a §IV-C window predicts, the paper's 3) are
HybriMoE's own policy: the strategy builds the planner it plans and
prefetches with and publishes it as ``runtime.scheduler``.
"""

from __future__ import annotations

from repro.cache.lfu import LFUPolicy
from repro.cache.mrs import MRSPolicy
from repro.cache.sharded import CacheSpec
from repro.core.fixed_plan import fixed_mapping_plan
from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.core.prefetch import ImpactDrivenPrefetcher, PredictedLayer
from repro.core.tasks import ExecutionPlan
from repro.engine.strategy_base import LayerContext, Strategy
from repro.errors import ConfigError

__all__ = ["HybriMoEStrategy"]

#: Relative margin by which a prefetched (speculative) key must outrank
#: the would-be victim to be admitted.
PREFETCH_ADMIT_MARGIN = 0.25


class HybriMoEStrategy(Strategy):
    """Hybrid scheduling + impact prefetching + MRS caching (§IV)."""

    def __init__(
        self,
        scheduling: bool = True,
        prefetching: bool = True,
        caching: bool = True,
        scheduler: SchedulerConfig = SchedulerConfig(),
        lookahead: int = 3,
    ) -> None:
        if lookahead < 1:
            raise ConfigError(f"lookahead must be >= 1, got {lookahead}")
        super().__init__()
        self.scheduler_config = scheduler
        self.prefetch_lookahead = lookahead
        self.scheduling = scheduling
        self.prefetching = prefetching
        self.caching = caching
        # Not prefill: at prompt-sized loads the impact estimate found
        # no gain, or ignored the demand transfers sharing the link.
        self.prefetch_stages = frozenset({"decode"}) if prefetching else frozenset()
        self._prefetcher: ImpactDrivenPrefetcher | None = None
        parts = [
            flag_name
            for flag_name, enabled in (
                ("sched", scheduling),
                ("prefetch", prefetching),
                ("cache", caching),
            )
            if enabled
        ]
        self.name = "hybrimoe" if all(
            (scheduling, prefetching, caching)
        ) else "hybrimoe[" + "+".join(parts or ["baseline"]) + "]"

    # ------------------------------------------------------------------
    def setup(self) -> None:
        runtime = self._runtime()
        runtime.scheduler = HybridScheduler(
            runtime.estimated_oracle, self.scheduler_config
        )
        if self.prefetching:
            shape = runtime.model_config.routed_expert_shape
            self._prefetcher = ImpactDrivenPrefetcher(
                scheduler=runtime.scheduler,
                transfer_time_fn=lambda: runtime.cost_estimated.transfer_time(shape),
                num_activated=runtime.model_config.num_activated_experts,
                lookahead=self.prefetch_lookahead,
                disk_fetch_s=runtime.disk_fetch_est_s,
            )

    def on_costs_changed(self) -> None:
        # The planner's plan memo and duration tables cache raw floats
        # of the old costs.
        self._runtime().scheduler.invalidate_costs()
        # The prefetcher froze the disk-read lead-time estimate at
        # setup; under a disk-stall window the runtime's recomputed
        # estimate includes the stall, so budgeting stays honest. The
        # transfer estimate needs nothing — it is a live lambda over
        # the (mutated-in-place) estimated cost model.
        if self._prefetcher is not None:
            self._prefetcher.disk_fetch_s = self._runtime().disk_fetch_est_s

    def cache_spec(self) -> CacheSpec:
        runtime = self._runtime()
        capacity = runtime.capacity
        ranking = runtime.frequency_ranking()
        if self.caching:
            def primed_mrs() -> MRSPolicy:
                policy = MRSPolicy(
                    top_p=2 * runtime.model_config.num_activated_experts
                )
                # Prime MRS priorities from the warmup phase so the first
                # eviction decisions already reflect observed scores — the
                # paper's warmup collects exactly this signal (§IV-A).
                for step in runtime.warmup_trace.steps:
                    policy.on_step_scores([routing.mean_scores for routing in step.layers])
                return policy

            return CacheSpec(capacity, primed_mrs, warm=ranking)
        if self.prefetching:
            # Static pinning plus a small scratch ring where prefetched
            # experts land before use. Like the untracked staging buffers
            # every baseline uses for on-demand loads, the scratch is not
            # charged against the expert-cache budget.
            k = runtime.model_config.num_activated_experts
            scratch = 2 * k * self.prefetch_lookahead
            return CacheSpec(scratch, LFUPolicy, pinned=ranking[:capacity])
        # Static frequency pinning (the kTransformers cache behaviour).
        return CacheSpec(0, LFUPolicy, pinned=ranking[:capacity])

    # ------------------------------------------------------------------
    def observe_scores(self, ctx: LayerContext) -> None:
        if self.caching:
            super().observe_scores(ctx)

    def plan_layer(self, ctx: LayerContext) -> ExecutionPlan:
        runtime = self._runtime()
        if self.scheduling:
            return runtime.scheduler.plan(
                layer=ctx.layer,
                activated=list(ctx.activated),
                cached_experts=set(ctx.cached_experts),
                n_tokens=ctx.n_tokens,
                pcie_backlog=ctx.pcie_backlog,
                include_shared=ctx.include_shared,
                inflight=ctx.inflight_dict(),
                cpu_backlog=ctx.cpu_backlog,
                spilled=ctx.spilled_experts,
                disk_fetch_s=ctx.disk_fetch_s,
            )
        return fixed_mapping_plan(
            layer=ctx.layer,
            activated=list(ctx.activated),
            cached_experts=set(ctx.cached_experts),
            n_tokens=ctx.n_tokens,
            stage=ctx.stage,
            oracle=runtime.estimated_oracle(ctx.n_tokens),
            include_shared=ctx.include_shared,
        )

    def after_layer(self, ctx: LayerContext, plan: ExecutionPlan) -> None:
        if not self.caching:
            # Static pinning: transferred experts were scratch loads;
            # the pinned set does not change.
            return
        runtime = self._runtime()
        if ctx.stage == "decode":
            # Inter-iteration cache management (§IV-D): transferred
            # experts join the cache, and CPU-computed misses are
            # *refilled* in the background — an off-critical-path PCIe
            # copy so the next iterations hit. Both paths are
            # admission-controlled by MRS priority.
            shard = runtime.cache.shards[ctx.device_id]
            for transfer in plan.transfers:
                shard.insert_if_better((transfer.layer, transfer.expert))
            self._refill_decode_misses(ctx, plan)
        # Prefill loads are transient layer-by-layer traffic, not
        # iteration-level reuse signal; they bypass the cache.

    def _refill_decode_misses(self, ctx: LayerContext, plan: ExecutionPlan) -> None:
        """Background-load CPU-computed misses the MRS policy wants kept.

        Strictly opportunistic: refills only run when the PCIe link is
        idle (a busy link means on-demand loads or prefetches are
        pending — contending with them would push work *onto* the
        critical path), and at most one expert per layer, highest
        routing score first. Adaptation is gradual by design; residency
        converges over decode iterations rather than thrashing within
        one.
        """
        runtime = self._runtime()
        # Refills ride this device's own host-to-device link into its
        # own shard — the home of every expert of ``ctx``.
        shard = runtime.cache.shards[ctx.device_id]
        link = runtime.clock.pcie_timeline(ctx.device_id)
        if link.available_at > ctx.moe_start:
            return
        shape = runtime.model_config.routed_expert_shape
        scores = ctx.router.mean_scores()
        misses = sorted(
            (task for task in plan.cpu_tasks if not task.is_shared),
            key=lambda task: -scores[task.expert],
        )
        for task in misses:
            key = (task.layer, task.expert)
            if not shard.would_admit(key):
                continue
            # The copy waits for the key's DRAM landing: a spilled miss
            # is refilled only once its disk read has finished.
            duration = runtime.cost_actual.transfer_time(shape)
            runtime.clock.copy("refill", key, ctx.moe_start, duration, ctx.device_id)
            shard.insert(key)
            break

    def prefetch_requests(
        self,
        ctx: LayerContext,
        predictions: list[PredictedLayer],
        budget_s: float,
        layer_span_s: float = float("inf"),
        backlog_s: float = 0.0,
    ) -> list[tuple]:
        if not self.caching:
            # Without a dynamic cache prefetches land in the small
            # scratch ring; keep to a single-layer lookahead so scratch
            # entries are used before they are overwritten.
            predictions = predictions[:1]
        decisions = self._prefetcher.select(
            predictions,
            ctx.layer,
            budget_s,
            layer_span_s=layer_span_s,
            backlog_s=backlog_s,
        )
        if not self.caching:
            return [(d.layer, d.expert) for d in decisions]
        # Admission check before paying for the transfer: a prefetch
        # the MRS policy would immediately evict is pure PCIe waste.
        # The margin keeps speculative (prediction-driven) inserts
        # from churning residents of nearly equal priority.
        runtime = self._runtime()
        cache = runtime.cache
        requests: list[tuple] = []
        for d in decisions:
            key = (d.layer, d.expert)
            if cache.would_admit(key, margin=PREFETCH_ADMIT_MARGIN):
                requests.append((d.layer, d.expert))
            elif (
                runtime.tiered
                and cache.is_spilled(key)
                and cache.dram_would_admit(key)
            ):
                # GPU admission lost, but the expert is on disk and the
                # impact simulation still found it valuable: promote it
                # into DRAM only, so a later miss is a PCIe transfer or
                # in-place CPU compute instead of a full disk chain.
                requests.append((d.layer, d.expert, "dram"))
        return requests
