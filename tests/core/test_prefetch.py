"""Impact-driven prefetcher: impact ranking, budget and lead time."""

import numpy as np
import pytest

from repro.core.hybrid_scheduler import HybridScheduler
from repro.core.prefetch import CONFIDENCE_DECAY, ImpactDrivenPrefetcher, PredictedLayer
from repro.errors import SchedulingError


@pytest.fixture
def scheduler(toy_oracle_factory):
    return HybridScheduler(toy_oracle_factory)


@pytest.fixture
def prefetcher(scheduler):
    return ImpactDrivenPrefetcher(
        scheduler=scheduler,
        transfer_time_fn=lambda: 3.0,
        num_activated=2,
        lookahead=3,
    )


def _prediction(layer, scores, cached=(), n_tokens=4):
    return PredictedLayer(
        layer=layer,
        scores=np.asarray(scores, dtype=np.float64),
        n_tokens=n_tokens,
        cached_experts=frozenset(cached),
    )


class TestPredictedActivation:
    def test_top_k_selected(self, prefetcher):
        activation = prefetcher.predicted_activation(
            _prediction(1, [0.05, 0.5, 0.05, 0.4])
        )
        experts = {e for e, _ in activation}
        assert experts == {1, 3}

    def test_loads_positive_and_bounded(self, prefetcher):
        activation = prefetcher.predicted_activation(
            _prediction(1, [0.7, 0.1, 0.1, 0.1], n_tokens=8)
        )
        for _, load in activation:
            assert 1 <= load <= 8

    def test_degenerate_scores_fall_back_to_uniform(self, prefetcher):
        activation = prefetcher.predicted_activation(
            _prediction(1, [0.0, 0.0, 0.0, 0.0])
        )
        assert len(activation) == 2


class TestImpactRanking:
    def test_cached_experts_not_candidates(self, prefetcher):
        decisions = prefetcher.evaluate_candidates(
            [_prediction(1, [0.6, 0.4, 0.0, 0.0], cached={0, 1})], current_layer=0
        )
        assert decisions == []

    def test_gains_sorted_descending(self, prefetcher):
        decisions = prefetcher.evaluate_candidates(
            [
                _prediction(1, [0.5, 0.3, 0.1, 0.1]),
                _prediction(2, [0.4, 0.4, 0.1, 0.1]),
            ],
            current_layer=0,
        )
        gains = [d.gain for d in decisions]
        assert gains == sorted(gains, reverse=True)

    def test_beyond_lookahead_ignored(self, prefetcher):
        decisions = prefetcher.evaluate_candidates(
            [_prediction(9, [0.5, 0.3, 0.1, 0.1])], current_layer=0
        )
        assert decisions == []


class TestDistanceWindow:
    """A prediction ``distance`` layers ahead counts only for ``1 <=
    distance <= lookahead``, its gain discounted by
    ``CONFIDENCE_DECAY ** (distance - 1)`` (gate-reuse accuracy decays
    with distance)."""

    SCORES = [0.5, 0.3, 0.1, 0.1]

    @staticmethod
    def _gains(prefetcher, predictions, current_layer):
        return [
            (d.distance, d.expert, d.gain)
            for d in prefetcher.evaluate_candidates(predictions, current_layer)
        ]

    @pytest.mark.parametrize("distance", [1, 2, 3])
    def test_gain_is_discounted_by_decay_power(self, prefetcher, distance):
        """The toy oracle costs every layer alike, so the same scores
        one layer ahead give the undiscounted gains."""
        adjacent = [_prediction(1, self.SCORES)]
        want = [
            (distance, expert, gain * CONFIDENCE_DECAY ** (distance - 1))
            for _, expert, gain in self._gains(prefetcher, adjacent, 0)
        ]
        assert want
        assert self._gains(prefetcher, [_prediction(distance, self.SCORES)], 0) == want

    def test_nearer_layer_ranks_first_on_equal_scores(self, prefetcher):
        """One call over equal scores 1, 2 and 3 layers ahead: each
        expert's gain falls with distance, so the nearest layer leads."""
        predictions = [_prediction(distance, self.SCORES) for distance in (3, 1, 2)]
        gains = self._gains(prefetcher, predictions, 0)
        assert gains[0][0] == 1
        by_expert = {}
        for distance, expert, gain in gains:
            by_expert.setdefault(expert, {})[distance] = gain
        assert by_expert
        for per_distance in by_expert.values():
            assert per_distance[1] > per_distance[2] > per_distance[3] > 0.0

    @pytest.mark.parametrize("lookahead", [1, 2, 3, 4])
    def test_only_layers_within_lookahead_are_candidates(self, scheduler, lookahead):
        prefetcher = ImpactDrivenPrefetcher(scheduler, lambda: 3.0, 2, lookahead)
        predictions = [_prediction(layer, self.SCORES) for layer in range(1, 7)]
        decisions = prefetcher.evaluate_candidates(predictions, current_layer=0)
        assert {d.distance for d in decisions} == set(range(1, lookahead + 1))
        assert all(d.layer == d.distance for d in decisions)

    @pytest.mark.parametrize("current_layer", [2, 3])
    def test_current_and_past_layers_are_ignored(self, prefetcher, current_layer):
        predictions = [_prediction(2, self.SCORES)]
        assert prefetcher.evaluate_candidates(predictions, current_layer) == []

    @pytest.mark.parametrize("current_layer", [1, 2, 5])
    def test_decisions_depend_on_distance_not_on_layer_index(
        self, prefetcher, current_layer
    ):
        """The toy oracle costs every layer alike, so shifting the window
        changes each decision's layer and nothing else."""
        shifted = [
            _prediction(current_layer + distance, scores)
            for distance, scores in ((1, self.SCORES), (2, [0.4, 0.4, 0.1, 0.1]))
        ]
        at_zero = [
            _prediction(distance, p.scores) for distance, p in enumerate(shifted, 1)
        ]
        assert self._gains(prefetcher, shifted, current_layer) == self._gains(
            prefetcher, at_zero, 0
        )


class TestSelection:
    def test_budget_limits_count(self, prefetcher):
        predictions = [
            _prediction(1, [0.5, 0.3, 0.1, 0.1]),
            _prediction(2, [0.4, 0.3, 0.2, 0.1]),
        ]
        within = prefetcher.select(predictions, 0, budget_s=3.5)
        assert len(within) == 1  # one 3.0-unit transfer fits

    @pytest.mark.parametrize("transfers", [1, 2, 3, 4])
    def test_equal_cost_selection_is_the_ranking_prefix(self, prefetcher, transfers):
        """Every candidate costs one 3.0-unit transfer: a budget of
        ``transfers`` of them buys the best ``transfers`` candidates."""
        predictions = [
            _prediction(1, [0.5, 0.3, 0.1, 0.1]),
            _prediction(2, [0.1, 0.1, 0.4, 0.4]),
        ]
        ranking = prefetcher.evaluate_candidates(predictions, 0)
        assert len(ranking) >= 3
        chosen = prefetcher.select(predictions, 0, budget_s=3.0 * transfers + 1.0)
        assert chosen == ranking[:transfers]

    def test_zero_budget_selects_nothing(self, prefetcher):
        assert prefetcher.select([_prediction(1, [1, 0, 0, 0])], 0, 0.0) == []

    def test_lead_time_gating(self, prefetcher):
        """A transfer that cannot land before its layer is skipped."""
        predictions = [_prediction(1, [0.5, 0.3, 0.1, 0.1])]
        allowed = prefetcher.select(
            predictions, 0, budget_s=100.0, layer_span_s=5.0, backlog_s=0.0
        )
        blocked = prefetcher.select(
            predictions, 0, budget_s=100.0, layer_span_s=1.0, backlog_s=0.0
        )
        assert allowed and not blocked

    def test_backlog_consumes_lead_time(self, prefetcher):
        predictions = [_prediction(1, [0.5, 0.3, 0.1, 0.1])]
        blocked = prefetcher.select(
            predictions, 0, budget_s=100.0, layer_span_s=4.0, backlog_s=3.0
        )
        assert blocked == []

    def test_negative_backlog_rejected(self, prefetcher):
        with pytest.raises(SchedulingError):
            prefetcher.select([], 0, 1.0, backlog_s=-1.0)


class TestValidation:
    def test_invalid_construction(self, scheduler):
        with pytest.raises(SchedulingError):
            ImpactDrivenPrefetcher(scheduler, lambda: 1.0, 2, lookahead=0)
        with pytest.raises(SchedulingError):
            ImpactDrivenPrefetcher(scheduler, lambda: 1.0, 0)
