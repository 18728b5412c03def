"""Impact-driven prefetching (paper §IV-C, Fig. 6).

Between MoE phases the PCIe link is often idle. HybriMoE fills that
window by preloading experts of *upcoming* layers — but unlike prior
work, which prefetches the next layer greedily, it decides **which
layer's experts** to prioritise by *simulating the impact*: for each
candidate expert of layers ``l+1 .. l+depth`` it runs the hybrid
schedule simulation with and without that expert cached, and ranks
candidates by the expected makespan reduction, discounted by prediction
confidence (gate-reuse accuracy decays with distance).

Predictions reuse the gating weights of the future layers applied to
the current hidden state — exactly the mechanism of Fig. 6.

**Cost.** A naive implementation pays a full with/without
simulation pair per candidate expert per lookahead layer, which makes
the prefetcher the planner's dominant cost in decode. Three mechanisms
cut that down without changing a single decision:

- *delta screening*: each candidate is first scored by a cheap
  timeline delta bound — the baseline makespan minus a provable lower
  bound on the with-expert makespan (built from the same duration
  floats the simulation would add). When even that optimistic gain
  cannot exceed zero, the exact simulation is skipped; the
  bound is one-sided, so screening can only drop candidates the exact
  path would also have dropped.
- *batched scheduler calls*: the base makespans and screening bounds
  of every predicted layer come from one
  :meth:`~repro.core.hybrid_scheduler.HybridScheduler.screen_prediction_batch`
  pass and a layer's survivors from one ``quick_makespans_with`` call,
  hoisting the shared validation and sorts; the floats are those of
  the per-call ``simulate_makespan(quick=True)`` /
  ``quick_makespan_lower_bound`` methods, which
  ``tests/core/test_planner_fastpath.py`` and
  ``tests/core/test_hybrid_scheduler.py`` compare them with.
- *memoized simulations*: the scheduler's plan memo covers the quick
  screens and impact simulations. It is keyed on a predicted layer's
  shape (loads and cached flags in id order, candidates as ranks), not
  on its expert ids, so in decode nearly all of them are memo hits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hybrid_scheduler import HybridScheduler
from repro.errors import SchedulingError

__all__ = ["PredictedLayer", "PrefetchDecision", "ImpactDrivenPrefetcher"]

#: Per-layer-distance discount on a candidate's gain: gate-reuse
#: predictions lose accuracy with every layer they look ahead.
CONFIDENCE_DECAY = 0.8


@dataclass(frozen=True)
class PredictedLayer:
    """Gate-reuse prediction for one future layer.

    Attributes
    ----------
    layer:
        Future layer index.
    scores:
        Predicted per-expert routing scores (mean over tokens), shape
        ``(n_experts,)``.
    n_tokens:
        Tokens the step will route (same as the current step's).
    cached_experts:
        Expert ids of that layer currently resident or in flight.
    spilled_experts:
        Expert ids of that layer resident in *no* memory tier (tiered
        platforms only): their impact simulations carry the disk-fetch
        surcharge, and a granted prefetch first stages them into DRAM.
    """

    layer: int
    scores: np.ndarray
    n_tokens: int
    cached_experts: frozenset[int]
    spilled_experts: frozenset[int] = frozenset()


@dataclass(frozen=True)
class PrefetchDecision:
    """One selected prefetch with its estimated benefit."""

    layer: int
    expert: int
    gain: float
    cost: float
    distance: int


class ImpactDrivenPrefetcher:
    """Rank prefetch candidates by simulated makespan reduction.

    Parameters
    ----------
    scheduler:
        The hybrid scheduler whose simulation estimates impact (shares
        the planner's *estimated* cost oracle).
    transfer_time_fn:
        Callable ``() -> float`` giving the estimated per-expert
        transfer duration (budget accounting).
    num_activated:
        Top-K of the model; predicted activation sets take the top-K
        experts by predicted score.
    lookahead:
        How many future layers to consider (the paper uses 3).
    disk_fetch_s:
        Estimated disk -> DRAM read time per spilled expert (tiered
        platforms; 0 keeps the two-tier behaviour). Impact simulations
        then cost the full disk -> CPU -> GPU chain, and prefetching a
        spilled expert is charged ``disk_fetch_s`` of extra lead time.
    """

    def __init__(
        self,
        scheduler: HybridScheduler,
        transfer_time_fn,
        num_activated: int,
        lookahead: int = 3,
        disk_fetch_s: float = 0.0,
    ) -> None:
        if lookahead < 1:
            raise SchedulingError(f"lookahead must be >= 1, got {lookahead}")
        if num_activated < 1:
            raise SchedulingError(f"num_activated must be >= 1, got {num_activated}")
        if disk_fetch_s < 0:
            raise SchedulingError(
                f"disk_fetch_s must be non-negative, got {disk_fetch_s}"
            )
        self.scheduler = scheduler
        self.transfer_time_fn = transfer_time_fn
        self.num_activated = num_activated
        self.lookahead = lookahead
        self.disk_fetch_s = disk_fetch_s

    # ------------------------------------------------------------------
    def predicted_activation(
        self, prediction: PredictedLayer
    ) -> list[tuple[int, int]]:
        """Estimated ``(expert, load)`` set for a predicted layer.

        The top-K experts by predicted score are assumed activated.
        Loads are apportioned from scores: each of the ``n_tokens``
        tokens contributes K expert slots, distributed proportionally
        to the predicted scores of the selected experts (minimum 1).
        """
        scores = np.asarray(prediction.scores, dtype=np.float64)
        k = min(self.num_activated, scores.size)
        top = np.argsort(-scores, kind="stable")[:k]
        if prediction.n_tokens == 1:
            # Decode: the `min(load, n_tokens)` cap below forces every
            # load to exactly 1, so the share apportionment is dead
            # arithmetic — skip it.
            return [(int(e), 1) for e in top]
        total_slots = prediction.n_tokens * k
        weights = scores[top]
        weight_sum = float(weights.sum())
        if weight_sum <= 0:
            shares = np.full(k, 1.0 / k)
        else:
            shares = weights / weight_sum
        loads = np.maximum(1, np.round(shares * total_slots).astype(int))
        # Cap at n_tokens: an expert cannot receive more tokens than exist.
        loads = np.minimum(loads, prediction.n_tokens)
        return [(int(e), int(load)) for e, load in zip(top, loads)]

    def evaluate_candidates(
        self, predictions: list[PredictedLayer], current_layer: int
    ) -> list[PrefetchDecision]:
        """Simulate the impact of each candidate expert, best first.

        Only predictions within ``lookahead`` are considered, and each
        one's gain is discounted by ``CONFIDENCE_DECAY ** (distance-1)``.
        """
        prepared: list[tuple[PredictedLayer, int, list, set, list]] = []
        for prediction in predictions:
            distance = prediction.layer - current_layer
            if distance < 1:
                continue
            if distance > self.lookahead:
                continue
            activated = self.predicted_activation(prediction)
            cached = set(prediction.cached_experts)
            candidates = [e for e, _ in activated if e not in cached]
            if not candidates:
                continue
            prepared.append((prediction, distance, activated, cached, candidates))
        if not prepared:
            return []
        # Bases and screening bounds for *every* predicted layer from
        # one batched, memoized pass — separate per-prediction base
        # simulations and per-candidate bound calls would repeat the
        # same input validation and sorts for the same floats.
        screens = self.scheduler.screen_prediction_batch(
            [
                (
                    activated,
                    cached,
                    prediction.n_tokens,
                    candidates,
                    prediction.spilled_experts,
                )
                for prediction, _, activated, cached, candidates in prepared
            ],
            disk_fetch_s=self.disk_fetch_s,
        )
        decisions: list[PrefetchDecision] = []
        for (prediction, distance, activated, cached, candidates), (
            base,
            bounds,
        ) in zip(prepared, screens):
            spilled = prediction.spilled_experts
            confidence = CONFIDENCE_DECAY ** (distance - 1)
            survivors = self._screen(candidates, base, confidence, bounds)
            if not survivors:
                continue
            # Each survivor simulated as cached: its own spill state is
            # moot (the scheduler intersects spilled with uncached), but
            # the rest of the layer keeps its surcharges. One batched
            # call hoists the shared sorts/validation and memoizes the
            # whole survivor set.
            with_makespans = self.scheduler.quick_makespans_with(
                activated, cached, prediction.n_tokens, survivors,
                spilled=spilled, disk_fetch_s=self.disk_fetch_s,
            )
            for expert in survivors:
                gain = (base - with_makespans[expert]) * confidence
                if gain > 0.0:
                    cost = self.transfer_time_fn()
                    if expert in spilled:
                        # A spilled expert rides the disk link first —
                        # more lead time and more budget consumed.
                        cost += self.disk_fetch_s
                    decisions.append(
                        PrefetchDecision(
                            layer=prediction.layer,
                            expert=expert,
                            gain=gain,
                            cost=cost,
                            distance=distance,
                        )
                    )
        decisions.sort(key=lambda d: (-d.gain, d.distance, d.layer, d.expert))
        return decisions

    def _screen(
        self,
        candidates: list[int],
        base: float,
        confidence: float,
        bounds: dict[int, float],
    ) -> list[int]:
        """Candidates whose exact simulation could still show a gain.

        The upper bound on a candidate's gain is
        ``(base - lower_bound(with-expert makespan)) * confidence``,
        with the lower bounds precomputed in ``bounds``
        (:meth:`~repro.core.hybrid_scheduler.HybridScheduler.screen_prediction_batch`).
        A candidate is dropped only when even that bound is not
        positive — the exact path would have dropped it too, so the
        surviving set yields bit-identical decisions, evaluated in
        candidate order.
        """
        return [
            expert
            for expert in candidates
            if (base - bounds[expert]) * confidence > 0.0
        ]

    def select(
        self,
        predictions: list[PredictedLayer],
        current_layer: int,
        budget_s: float,
        layer_span_s: float = float("inf"),
        backlog_s: float = 0.0,
    ) -> list[PrefetchDecision]:
        """Greedy selection of prefetches within budget and lead time.

        Two constraints gate each candidate:

        - **budget**: total prefetch transfer time stays within the
          estimated idle window of the PCIe link;
        - **lead time**: a transfer must be able to *finish* before its
          target layer's MoE phase, i.e. within ``distance *
          layer_span_s`` minus the link's current backlog. A prefetch
          that lands late merely stalls the GPU (the planner would have
          done better sending the expert to the CPU), so it is skipped.
        """
        if budget_s <= 0:
            return []
        if backlog_s < 0:
            raise SchedulingError(f"backlog_s must be non-negative, got {backlog_s}")
        chosen: list[PrefetchDecision] = []
        spent = 0.0
        for decision in self.evaluate_candidates(predictions, current_layer):
            if spent + decision.cost > budget_s:
                continue
            finish_offset = backlog_s + spent + decision.cost
            if finish_offset > decision.distance * layer_span_s:
                continue
            chosen.append(decision)
            spent += decision.cost
        return chosen
