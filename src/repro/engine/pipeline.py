"""The batch-capable per-step executor shared by generation and serving.

:class:`StepPipeline` is the per-step pipeline formerly inlined in
``InferenceEngine._run_step``, generalised to run **one fused forward
step over a batch of independent sequences**. Each sequence keeps its
own :class:`~repro.models.model.DecodeState` (attention context,
coherence chain, position), so per-sequence numerics are exactly those
of a solo run; the *scheduling* side — routing union, cache accesses,
plan search, transfers, prefetching — sees the merged batch:

- attention is charged once for the batch's total token count;
- the router runs over the concatenated token rows, so per-layer
  ``activated`` is the union of the batch's experts with summed loads;
- the shared expert cache records one access per activated expert of
  the fused step, exactly as a solo step would for its own union.

Numerics are those of :meth:`ReferenceMoEModel.forward`, bit for bit:
attention, routing and the shared experts are the model's own calls,
and the routed experts run through a sort-once dispatch
(:meth:`StepPipeline._combine_outputs`) that performs, per output
element, the reference's additions in the reference's order. A fused
batch therefore gives every sequence the hidden states of its solo run
— the property the serving equivalence tests pin down.

**Tiered memory.** On a tiered platform
(``EngineConfig.cpu_cache_capacity``) each layer's *spilled* experts —
resident in neither the GPU cache nor the DRAM tier — are computed
before planning and threaded to the strategy via
:class:`LayerContext`; execution stages them disk -> DRAM on the
clock's shared disk link before their CPU compute or PCIe transfer,
and every staged expert is promoted into the DRAM tier afterwards
(policy-managed, so hot experts converge DRAM-resident). Prefetches of
spilled experts ride the full disk -> CPU -> GPU chain, and a strategy
may request a DRAM-only promotion (``(layer, expert, "dram")``) that
pays the disk read without spending PCIe bandwidth. With no CPU-tier
cap the spilled set is always empty and every code path reduces to the
two-tier engine, bit-identically.

**Device groups.** Every platform runs the same dispatch: each layer's
activated experts are partitioned by their home device (``expert %
N``, the cache shard that holds or would cache them; resolved once per
layer) and the strategy plans **one device group at a
time**, in ascending device order: device ``g``'s plan sees only its
own experts and its own shard's residency, its own PCIe link backlog,
and the shared CPU's accumulated backlog from earlier groups — the
per-device arbitration of the paper's min-latency CPU-fallback rule.
Residency reads, locking and the strategy's cache maintenance go
straight to the group's shard. Attention and the fused shared-experts
block stay on one device per step/layer (attention on device 0, shared
experts on the lowest-indexed device with routed work), and the layer
barrier waits for every device. The paper's single-GPU platform is not
a special case of the code, only of the data: one shard, hence one
group whose :class:`LayerContext` describes the whole layer, and a
home rule nobody evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cache.manager import ExpertCache
from repro.cache.sharded import ShardedCacheManager, home_device
from repro.cache.tiered import TieredCacheManager
from repro.core.executor import execute_plan
from repro.core.prefetch import PredictedLayer
from repro.core.tasks import ComputeTask, ExecutionPlan
from repro.engine.metrics import StepMetrics
from repro.engine.strategy_base import LayerContext, Strategy
from repro.errors import ConfigError, SchedulingError
from repro.models.gating import RouterOutput
from repro.models.model import DecodeState, ReferenceMoEModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.engine import EngineRuntime

__all__ = ["SequenceStep", "BatchStepResult", "StepPipeline"]


@dataclass(frozen=True)
class SequenceStep:
    """One sequence's contribution to a fused step: its tokens + state."""

    tokens: np.ndarray
    state: DecodeState


@dataclass(frozen=True)
class BatchStepResult:
    """Outcome of one fused step over a batch of sequences.

    Attributes
    ----------
    hidden:
        Per-sequence final hidden-state blocks, in input order; entry
        ``i`` has shape ``(len(tokens_i), d_model)``.
    metrics:
        Timing/cache metrics of the fused step (``n_tokens`` is the
        batch total; ``batch_size`` the number of sequences).
    """

    hidden: tuple[np.ndarray, ...]
    metrics: StepMetrics


class StepPipeline:
    """Reusable per-step executor over the engine's clock and cache.

    Per layer of a fused step: charge and run attention, route the
    concatenated rows once, record one cache access per activated
    expert, plan and execute each device group (one on a single GPU),
    run each routed expert once on its slice of the expert-grouped rows
    and recombine, then offer the strategy its prefetch window.

    Parameters
    ----------
    model:
        The functional model (routing + numerics substrate).
    strategy:
        The bound scheduling strategy.
    runtime:
        The engine runtime carrying clock, cache, cost models, config.
    """

    def __init__(
        self,
        model: ReferenceMoEModel,
        strategy: Strategy,
        runtime: "EngineRuntime",
    ) -> None:
        self.model = model
        self.strategy = strategy
        self.runtime = runtime

    # ------------------------------------------------------------------
    def _cache(self) -> ShardedCacheManager | TieredCacheManager:
        """The engine's bound expert cache (sharded, maybe tiered)."""
        cache = self.runtime.cache
        if cache is None:
            raise ConfigError("engine runtime has no cache bound")
        return cache

    # ------------------------------------------------------------------
    def run_step(
        self, tokens: np.ndarray, state: DecodeState, stage: str
    ) -> tuple[np.ndarray, StepMetrics]:
        """Single-sequence convenience wrapper around :meth:`run_batch`."""
        result = self.run_batch([SequenceStep(tokens, state)], stage)
        return result.hidden[0], result.metrics

    def run_batch(
        self,
        sequences: Sequence[SequenceStep],
        stage: str,
        not_before: float = 0.0,
    ) -> BatchStepResult:
        """Run one fused forward step for a batch of sequences.

        Parameters
        ----------
        sequences:
            Per-sequence token blocks and decode states, in a stable
            order (the serving layer uses admission order).
        stage:
            ``"prefill"`` or ``"decode"`` — recorded in metrics and
            exposed to the strategy via :class:`LayerContext`.
        not_before:
            Earliest simulated time the step may start (a request's
            arrival time); the clock idles up to it when the platform
            is otherwise drained.
        """
        if not sequences:
            raise ConfigError("run_batch requires at least one sequence")
        if not_before < 0:
            raise ConfigError(f"not_before must be non-negative, got {not_before}")
        model = self.model
        cfg = model.config
        runtime = self.runtime
        cache = self._cache()
        shards = cache.shards
        clock = runtime.clock

        tokens_list: list[np.ndarray] = []
        states: list[DecodeState] = []
        for seq in sequences:
            tokens = np.asarray(seq.tokens, dtype=np.int64)
            if tokens.ndim != 1 or tokens.size == 0:
                raise ConfigError("each sequence needs a non-empty 1-D token array")
            tokens_list.append(tokens)
            states.append(seq.state)
        sizes = [int(t.size) for t in tokens_list]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        n_tokens = int(bounds[-1])
        batch_size = len(sizes)
        d_model = cfg.routed_expert_shape.d_model

        step_start = max(clock.compute_frontier, not_before)
        stats_before = cache.stats  # one snapshot: aggregated across shards
        hits_before, misses_before = stats_before.hits, stats_before.misses

        blocks = [
            model.prepare_inputs(tokens, state)
            for tokens, state in zip(tokens_list, states)
        ]
        x = blocks[0] if batch_size == 1 else np.concatenate(blocks, axis=0)
        for layer in range(cfg.num_layers):
            barrier = max(clock.compute_frontier, step_start)
            attn_device = self.strategy.attention_device(layer)
            attn_duration = runtime.cost_actual.attention_time(
                d_model, n_tokens, device=attn_device
            )
            timeline = clock.gpu if attn_device == "gpu" else clock.cpu
            _, attn_end = timeline.reserve(barrier, attn_duration, f"attn L{layer}")

            if batch_size == 1:
                h = model.attention(x, layer, states[0])
            else:
                h = np.concatenate(
                    [
                        model.attention(
                            x[bounds[i] : bounds[i + 1]], layer, states[i]
                        )
                        for i in range(batch_size)
                    ],
                    axis=0,
                )
            z = model.moe_input(h)
            router = model.route(z, layer)
            # The (expert, int(loads[expert])) pairs of
            # router.activated_experts(): flatnonzero is ascending and
            # tolist() yields the very ints `int(loads[e])` would.
            active_ids = np.flatnonzero(router.loads > 0)
            active = active_ids.tolist()
            activated = tuple(zip(active, router.loads[active_ids].tolist()))
            if runtime.tiered:
                spilled = cache.spilled_experts(
                    layer, (expert for expert, _ in activated)
                )
            else:
                spilled = frozenset()
            for expert, _ in activated:
                key = (layer, expert)
                hit = cache.access(key)
                if key in runtime._prefetch_pending:
                    # Prefetch-effectiveness accounting only — a
                    # prefetched expert counts as used when it is still
                    # resident the first time its layer needs it.
                    runtime._prefetch_pending.discard(key)
                    if hit:
                        runtime.prefetch_used += 1

            # One plan per device group, in ascending device order: each
            # sees its own shard's residency and link backlog, and the
            # shared CPU's backlog left by the groups before it.
            lead = None
            routed_tasks: list[ComputeTask] = []
            for device, group in self._device_groups(cache, activated):
                shard = shards[device]
                cached = shard.cached_experts_of_layer(layer)
                pcie_backlog = max(
                    0.0, clock.pcie_links[device].available_at - attn_end
                )
                # A transfer lands when its reservation on the home
                # device's own link finishes (on-demand load, prefetch
                # or refill alike), so an idle link means nothing is
                # still in flight and there is nothing to scan for.
                inflight: tuple[tuple[int, float], ...] = ()
                if pcie_backlog > 0.0:
                    inflight = tuple(
                        (expert, offset)
                        for expert, _ in group
                        if expert in cached
                        and (
                            offset := clock.landing.get(((layer, expert), "gpu"), 0.0)
                            - attn_end
                        )
                        > 0.0
                    )
                ctx = LayerContext(
                    layer=layer,
                    stage=stage,
                    n_tokens=n_tokens,
                    router=router,
                    activated=group,
                    cached_experts=cached,
                    moe_start=attn_end,
                    pcie_backlog=pcie_backlog,
                    inflight_offsets=inflight,
                    device_id=device,
                    include_shared=lead is None,
                    cpu_backlog=max(0.0, clock.cpu.available_at - attn_end),
                    spilled_experts=(
                        spilled.intersection(expert for expert, _ in group)
                        if spilled
                        else spilled
                    ),
                    disk_fetch_s=runtime.disk_fetch_est_s,
                )
                if lead is None:
                    lead = ctx
                    self.strategy.observe_scores(ctx)
                plan = self._plan_and_execute(ctx, shard)
                routed_tasks.extend(plan.routed_compute_tasks())

            routed_out = self._combine_outputs(z, layer, router, active, routed_tasks)
            shared_out = model.shared_forward(z, layer)
            x = h + model.residual_scale * (shared_out + routed_out)

            self._issue_prefetches(lead, z)

        for state, size in zip(states, sizes):
            state.position += size
        step_end = clock.compute_frontier
        utilization = clock.utilization_summary(step_start, step_end)
        stats_after = cache.stats
        metrics = StepMetrics(
            stage=stage,
            n_tokens=n_tokens,
            start=step_start,
            end=step_end,
            hits=stats_after.hits - hits_before,
            misses=stats_after.misses - misses_before,
            utilization=utilization,
            batch_size=batch_size,
        )
        if batch_size == 1:
            hidden = (x,)
        else:
            hidden = tuple(x[bounds[i] : bounds[i + 1]] for i in range(batch_size))
        return BatchStepResult(hidden=hidden, metrics=metrics)

    # ------------------------------------------------------------------
    def _promote_spilled(self, layer: int, spilled: frozenset[int]) -> None:
        """DRAM-insert every spilled expert the layer just staged.

        The plan covers all activated experts, so each spilled one was
        read off disk by the layer, and the tier decides what it
        displaces. Ascending expert id keeps runs deterministic.
        """
        cache = self._cache()
        for expert in sorted(spilled):
            cache.promote_to_dram((layer, expert))

    def _charge_demotions(self, now: float) -> None:
        """Copy each GPU -> DRAM demotion over its link's device-to-host
        lane: it takes its DRAM slot now and is usable once the
        ``demote`` row lands."""
        runtime = self.runtime
        cache = self._cache()
        if not runtime.tiered or not cache.demotions:
            return
        duration = runtime.cost_actual.transfer_time(self.model.config.routed_expert_shape)
        for key, gpu in cache.demotions:
            runtime.clock.copy("demote", key, now, duration, gpu)
            cache.promote_to_dram(key)
        cache.demotions.clear()

    @staticmethod
    def _device_groups(
        cache: ShardedCacheManager | TieredCacheManager,
        activated: tuple[tuple[int, int], ...],
    ) -> Sequence[tuple[int, tuple[tuple[int, int], ...]]]:
        """Partition a layer's ``(expert, load)`` pairs by home device.

        ``(device, pairs)`` in ascending device order, pairs in
        ascending expert id. Each expert's home is resolved here, once
        per layer; on one device the layer is its own single group and
        the home rule is not evaluated.
        """
        num_devices = len(cache.shards)
        if num_devices == 1:
            return ((0, activated),)
        by_device: dict[int, list[tuple[int, int]]] = {}
        for pair in activated:
            by_device.setdefault(home_device(pair[0], num_devices), []).append(pair)
        return [(device, tuple(by_device[device])) for device in sorted(by_device)]

    def _plan_and_execute(self, ctx: LayerContext, shard: ExpertCache) -> ExecutionPlan:
        """Plan one device group's experts and run the plan on its device.

        Plan, validate, lock what the plan uses, execute on
        ``ctx.device_id``'s timelines, promote what was staged off disk,
        let the strategy maintain the cache, unlock. Every key the plan
        touches is homed on ``ctx.device_id``, so only ``shard`` — that
        device's slice of the GPU cache — is locked.
        """
        runtime = self.runtime
        layer = ctx.layer
        cached = ctx.cached_experts
        plan = self.strategy.plan_layer(ctx)
        plan.validate(dict(ctx.activated), set(cached))

        used_keys = {(layer, e) for e, _ in ctx.activated if e in cached}
        used_keys.update((layer, t.expert) for t in plan.transfers)
        shard.lock(used_keys)
        execute_plan(
            plan,
            runtime.clock,
            runtime.actual_oracle(ctx.n_tokens),
            ctx.moe_start,
            device=ctx.device_id,
            spilled=ctx.spilled_experts,
        )
        self._promote_spilled(layer, ctx.spilled_experts)
        self.strategy.after_layer(ctx, plan)
        self._charge_demotions(ctx.moe_start)
        shard.unlock_all()
        return plan

    def _combine_outputs(
        self,
        z: np.ndarray,
        layer: int,
        router: RouterOutput,
        active: list[int],
        routed_tasks: Sequence[ComputeTask],
    ) -> np.ndarray:
        """Run the routed experts and recombine their weighted outputs.

        ``routed_tasks`` are the routed compute tasks of the layer's
        device plans, in any order; together they must name each expert
        of ``active`` (the ids ``router`` activated, ascending) exactly
        once, else :class:`~repro.errors.SchedulingError` — a missing
        task would silently drop that expert's contribution.

        Sort-once dispatch (``router.dispatch``): one gather lays the
        token rows out grouped by expert, each expert runs
        ``model.expert_forward`` in place on its contiguous slice, in
        ascending expert id, one in-place multiply applies the routing
        weights, and ``k`` passes accumulate the result — pass ``j``
        adds every token's contribution from its ``j``-th smallest
        expert id. Per output element these are the additions
        :meth:`ReferenceMoEModel.moe_forward` performs with
        ``np.add.at``, in the same order from the same zero, so the
        scheduled engine is bit-identical to the reference forward pass
        regardless of which device (or how many devices) computed each
        expert; ``tests/engine/test_dispatch.py`` holds the two equal.

        A single-token decode step skips the grouping: every routed
        expert reads the one row and the weights are ``k`` scalars.
        """
        model = self.model
        dtype = z.dtype
        experts = sorted(task.expert for task in routed_tasks)
        if experts != active:
            raise SchedulingError(
                f"layer {layer}: routed tasks compute experts {experts}, "
                f"routing activated {active}"
            )
        out = np.zeros_like(z)
        if z.shape[0] == 1:
            row_experts = router.topk_idx[0].tolist()
            weights_row = router.topk_weights[0]
            for expert in experts:
                weight = dtype.type(weights_row[row_experts.index(expert)])
                out += model.expert_forward(z, layer, expert) * weight
            return out
        dispatch = router.dispatch
        grouped = z.take(dispatch.tokens, axis=0)
        offsets = dispatch.offsets.tolist()
        for expert in experts:
            start, stop = offsets[expert], offsets[expert + 1]
            grouped[start:stop] = model.expert_forward(
                grouped[start:stop], layer, expert
            )
        grouped *= dispatch.weights[:, None].astype(dtype, copy=False)
        for positions in dispatch.slots:
            out += grouped.take(positions, axis=0)
        return out

    def _issue_prefetches(self, ctx: LayerContext, z: np.ndarray) -> None:
        """Build predictions, ask the strategy, and reserve transfers.

        Predictions pool gate scores over every token row of the fused
        batch, so the prefetcher optimises for the *merged* near-future
        routing of all concurrent requests. Each granted prefetch rides
        its expert's **home device** link and lands in that device's
        shard; the PCIe budget is probed against the least-backlogged
        link (optimistic — per-key contention is re-checked implicitly
        when the transfer queues on its link). ``ctx`` is the layer's
        lead context (its lowest device group). A stage outside
        :attr:`Strategy.prefetch_stages` opens no window.
        """
        if ctx.stage not in self.strategy.prefetch_stages:
            return
        runtime = self.runtime
        cache = self._cache()
        cfg = self.model.config
        num_layers = cfg.num_layers
        lookahead = self.strategy.prefetch_lookahead
        predictions: list[PredictedLayer] = []
        for distance in range(1, lookahead + 1):
            future = ctx.layer + distance
            if future >= num_layers:
                break
            scores = self.model.gate_scores(z, future)
            # A single row is its own mean, bit for bit.
            scores = scores[0] if len(scores) == 1 else scores.mean(axis=0)
            if runtime.tiered:
                future_spilled = cache.spilled_experts(
                    future, range(cfg.num_routed_experts)
                )
            else:
                future_spilled = frozenset()
            predictions.append(
                PredictedLayer(
                    layer=future,
                    scores=scores,
                    n_tokens=ctx.n_tokens,
                    cached_experts=cache.cached_experts_of_layer(future),
                    spilled_experts=future_spilled,
                )
            )
        if not predictions:
            return
        d_model = cfg.routed_expert_shape.d_model
        attn_est = runtime.cost_estimated.attention_time(d_model, ctx.n_tokens)
        # A transfer is useful if it lands before its layer's MoE phase:
        # roughly `distance` layer spans away. The just-executed layer's
        # span (MoE makespan + one attention window) is the best local
        # estimate of that span. PCIe work already queued (on-demand
        # loads, earlier prefetches) eats into the window — when the
        # link is saturated, prefetching only adds contention.
        layer_span = (runtime.clock.compute_frontier - ctx.moe_start) + attn_est
        backlog = max(
            0.0,
            runtime.clock.min_pcie_available_at - runtime.clock.compute_frontier,
        )
        budget = lookahead * max(layer_span, attn_est) - backlog
        if budget <= 0:
            return
        requests = self.strategy.prefetch_requests(
            ctx,
            predictions,
            budget,
            layer_span_s=max(layer_span, attn_est),
            backlog_s=backlog,
        )
        for request in requests:
            key = (request[0], request[1])
            target = request[2] if len(request) > 2 else "gpu"
            if key in cache:
                continue
            # A spilled expert is staged disk -> DRAM first; a GPU-bound
            # prefetch then rides PCIe *after* the disk read lands, and
            # a "dram" request stops there (staging without spending
            # PCIe bandwidth or a GPU slot). Like every copy into DRAM,
            # the staging takes its slot now and ``clock.landing`` gates
            # its use, so a key already staging is never re-read.
            if runtime.tiered and cache.is_spilled(key):
                disk_duration = runtime.cost_actual.disk_transfer_time(cfg.routed_expert_shape)
                runtime.clock.copy("disk", key, ctx.moe_start, disk_duration)
                cache.promote_to_dram(key)
            if target == "dram":
                continue
            device = cache.device_of(key)
            shard = cache.shards[device]
            # A zero-capacity home shard (no cache budget at all, or an
            # aggregate budget smaller than the fleet) can never admit
            # the expert — paying for the transfer would be pure PCIe
            # waste.
            if shard.capacity == 0:
                continue
            duration = runtime.cost_actual.transfer_time(cfg.routed_expert_shape)
            runtime.clock.copy("prefetch", key, ctx.moe_start, duration, device)
            shard.insert(key)
            self._charge_demotions(ctx.moe_start)
            runtime.prefetch_issued += 1
            runtime._prefetch_pending.add(key)
