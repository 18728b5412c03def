"""Strategy interface: how a framework schedules one MoE layer.

Every evaluated framework (HybriMoE and the four baselines) implements
:class:`Strategy`. The engine owns the mechanics — clocks, the cache
object, plan validation/execution, metric collection — and delegates
three decisions to the strategy:

- :meth:`Strategy.cache_spec` — policy, capacity, pinning and warm
  fill, as a declarative :class:`~repro.cache.sharded.CacheSpec` the
  engine materialises as one shard per GPU;
- :meth:`Strategy.plan_layer` — the per-layer execution plan, invoked
  once per device group (one group on a single GPU);
- :meth:`Strategy.prefetch_requests` — which experts of future layers
  to pull over PCIe during idle windows, in the stages the strategy
  declares in :attr:`Strategy.prefetch_stages`, over its
  :attr:`Strategy.prefetch_lookahead` next layers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cache.sharded import CacheSpec
from repro.core.prefetch import PredictedLayer
from repro.core.tasks import ExecutionPlan
from repro.models.gating import RouterOutput

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.engine import EngineRuntime

__all__ = ["LayerContext", "Strategy"]


@dataclass(frozen=True)
class LayerContext:
    """Everything a strategy may consult when planning one layer.

    The pipeline partitions a layer's activated experts by home device
    and hands the strategy one context per device group:
    ``activated``/``cached_experts`` cover that device's slice,
    ``device_id`` names the device (and with it the cache shard and
    PCIe link every expert of the context uses), and exactly one group
    per layer — the lowest device, the layer's *lead* context — carries
    ``include_shared=True``. On a single GPU the lead context is the
    only one and describes the whole layer. The once-per-layer hooks
    (:meth:`Strategy.observe_scores`, :meth:`Strategy.prefetch_requests`)
    receive the lead context; of it they may rely on the layer-wide
    fields only (``layer``, ``stage``, ``n_tokens``, ``router``,
    ``moe_start``).
    """

    layer: int
    stage: str  # "prefill" | "decode"
    n_tokens: int
    router: RouterOutput
    activated: tuple[tuple[int, int], ...]
    cached_experts: frozenset[int]
    moe_start: float
    pcie_backlog: float
    #: Ready-time offsets (relative to moe_start) of cached experts
    #: whose prefetch transfers are still in flight.
    inflight_offsets: tuple[tuple[int, float], ...] = ()
    #: GPU device this context's experts are homed on.
    device_id: int = 0
    #: Whether this device's plan carries the fused shared-experts
    #: block (exactly one device per layer does).
    include_shared: bool = True
    #: Seconds until the fleet-shared CPU frees up, relative to
    #: ``moe_start`` (earlier devices' CPU fallback queues ahead; 0
    #: for the lead context thanks to the layer barrier).
    cpu_backlog: float = 0.0
    #: Activated experts of this context resident in *no* memory tier
    #: (tiered platforms only — empty on the classic two-tier engine).
    #: Using one first pays ``disk_fetch_s`` on the shared disk link.
    spilled_experts: frozenset[int] = frozenset()
    #: Estimated disk -> DRAM read seconds per spilled expert.
    disk_fetch_s: float = 0.0

    def inflight_dict(self) -> dict[int, float]:
        return dict(self.inflight_offsets)


class Strategy(ABC):
    """Per-framework scheduling behaviour plugged into the engine."""

    #: Short identifier used in configs and result tables.
    name: str = "abstract"
    #: Stages (``"prefill"`` / ``"decode"``) whose layers open a prefetch
    #: window; :meth:`prefetch_requests` is called in no other stage.
    prefetch_stages: frozenset[str] = frozenset()
    #: Future layers a prefetch window predicts (the paper's 3).
    prefetch_lookahead: int = 3

    def __init__(self) -> None:
        self.runtime: "EngineRuntime | None" = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "EngineRuntime") -> None:
        """Attach the engine runtime, then run strategy setup."""
        self.runtime = runtime
        self.setup()

    def setup(self) -> None:
        """Hook for warmup-trace profiling, pinning decisions, etc."""

    def on_costs_changed(self) -> None:
        """Hook fired when the engine's cost models changed in place.

        Hardware fault injection degrades a resource mid-run by
        mutating the shared cost-model wrappers; strategies that froze
        a cost-derived scalar at :meth:`setup` time refresh it here.
        The default is a no-op — strategies that always query the cost
        models live need nothing.
        """

    @abstractmethod
    def cache_spec(self) -> CacheSpec:
        """Declarative recipe of the expert cache this strategy manages.

        The engine materialises the spec as one shard per GPU behind a
        :class:`~repro.cache.sharded.ShardedCacheManager`
        (:meth:`CacheSpec.build_sharded`) — a single shard on the
        paper's one-GPU platform.
        """

    # ------------------------------------------------------------------
    # per-layer behaviour
    # ------------------------------------------------------------------
    @abstractmethod
    def plan_layer(self, ctx: LayerContext) -> ExecutionPlan:
        """Produce the execution plan for one routed MoE layer."""

    def after_layer(self, ctx: LayerContext, plan: ExecutionPlan) -> None:
        """Post-execution cache maintenance.

        Default behaviour: insert every transferred expert into the
        cache (dynamic caching) — into ``ctx.device_id``'s shard, the
        home of every expert of ``ctx``. Static-mapping strategies
        override this with a no-op.
        """
        shard = self._runtime().cache.shards[ctx.device_id]
        for transfer in plan.transfers:
            shard.insert((transfer.layer, transfer.expert))

    def observe_scores(self, ctx: LayerContext) -> None:
        """Feed routing scores to the cache policy (MRS signal).

        Called once per layer before planning; default forwards the
        mean scores so score-aware policies stay current.
        """
        runtime = self._runtime()
        runtime.cache.observe_scores(ctx.layer, ctx.router.mean_scores())

    def prefetch_requests(
        self,
        ctx: LayerContext,
        predictions: list[PredictedLayer],
        budget_s: float,
        layer_span_s: float = float("inf"),
        backlog_s: float = 0.0,
    ) -> list[tuple]:
        """Experts of future layers to transfer during idle PCIe time.

        ``layer_span_s`` estimates the wall time of one layer and
        ``backlog_s`` the PCIe link's queued work — together they bound
        which transfers can land before their target layer. Returns
        ``(layer, expert)`` keys in issue order; default is no
        prefetching.

        On a tiered-memory platform a request may instead be the
        triple ``(layer, expert, "dram")``: promote the (spilled)
        expert into host DRAM only — pay the disk read now so a later
        use is a plain CPU compute or PCIe transfer — without spending
        PCIe bandwidth or a GPU cache slot on it.
        """
        return []

    def attention_device(self, layer: int) -> str:
        """Device running the layer's attention (llama.cpp overrides)."""
        return "gpu"

    # ------------------------------------------------------------------
    def _runtime(self) -> "EngineRuntime":
        if self.runtime is None:
            raise RuntimeError(
                f"strategy {self.name!r} used before being bound to an engine"
            )
        return self.runtime
