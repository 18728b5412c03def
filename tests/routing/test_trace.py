"""Trace container invariants."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.routing.trace import LayerRouting, RoutingTrace, StepTrace


def _layer(layer=0, n_experts=4, loads=None, scores=None):
    loads = np.array(loads if loads is not None else [2, 0, 1, 0], dtype=np.int64)
    scores = np.array(
        scores if scores is not None else [0.4, 0.1, 0.3, 0.2], dtype=np.float64
    )
    return LayerRouting(layer=layer, loads=loads, mean_scores=scores)


def _trace(num_layers=2, steps=2):
    step_list = [
        StepTrace(
            kind="prefill" if s == 0 else "decode",
            n_tokens=3 if s == 0 else 1,
            layers=[_layer(layer=l) for l in range(num_layers)],
        )
        for s in range(steps)
    ]
    return RoutingTrace(
        model_name="tiny",
        num_layers=num_layers,
        num_experts=4,
        num_activated=2,
        steps=step_list,
    )


class TestLayerRouting:
    def test_activated_lists_nonzero_loads(self):
        assert _layer().activated() == [0, 2]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TraceError):
            LayerRouting(0, np.zeros(3, dtype=np.int64), np.zeros(4))


class TestStepTrace:
    def test_invalid_kind_rejected(self):
        with pytest.raises(TraceError):
            StepTrace(kind="warmup", n_tokens=1, layers=[_layer()])

    def test_zero_tokens_rejected(self):
        with pytest.raises(TraceError):
            StepTrace(kind="decode", n_tokens=0, layers=[_layer()])

    def test_layer_index_mismatch_rejected(self):
        with pytest.raises(TraceError):
            StepTrace(kind="decode", n_tokens=1, layers=[_layer(layer=3)])


class TestRoutingTrace:
    def test_wrong_layer_count_rejected(self):
        with pytest.raises(TraceError):
            RoutingTrace("t", 3, 4, 2, steps=_trace().steps)

    def test_wrong_expert_count_rejected(self):
        with pytest.raises(TraceError):
            RoutingTrace("t", 2, 5, 2, steps=_trace().steps)

    def test_step_filters(self):
        trace = _trace()
        assert len(trace.prefill_steps()) == 1
        assert len(trace.decode_steps()) == 1
