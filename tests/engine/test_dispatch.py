"""Sort-once expert dispatch: bit-for-bit oracle and work guard.

``StepPipeline._combine_outputs`` groups a layer's (token, expert)
pairs by expert once, runs every routed expert on a contiguous slice
and accumulates in ``k`` passes. ``ReferenceMoEModel.moe_forward`` (one
scan, gather and ``np.add.at`` per expert) is the oracle: every
comparison here is ``assert_array_equal``. The work guard counts calls
and checks memory layout, so it holds without a clock.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tasks import ComputeTask, Device
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_strategy
from repro.engine.pipeline import SequenceStep, StepPipeline
from repro.errors import SchedulingError
from repro.hardware.platform_presets import paper_testbed
from repro.models.config import ExpertShape, MoEModelConfig
from repro.models.gating import route_tokens
from repro.models.model import ReferenceMoEModel
from tests.conftest import SMALL_PROFILE


def config(num_experts: int, k: int, num_layers: int = 1) -> MoEModelConfig:
    return MoEModelConfig(
        name=f"dispatch-{num_experts}",
        num_layers=num_layers,
        num_shared_experts=1,
        num_routed_experts=num_experts,
        num_activated_experts=k,
        routed_expert_shape=ExpertShape(256, 512),
        shared_expert_shape=ExpertShape(256, 512),
    )


@lru_cache(maxsize=None)
def pipeline_for(num_experts: int) -> StepPipeline:
    """A pipeline over a one-layer model; combining needs no runtime."""
    model = ReferenceMoEModel(
        config(num_experts, 1), d_model=8, d_ff=16, vocab_size=32, seed=1
    )
    return StepPipeline(model, None, None)


def tasks_for(router, rng, devices=(Device.GPU, Device.CPU)) -> list[ComputeTask]:
    """One routed task per activated expert, as several device plans
    would hand them back: shuffled, on mixed devices."""
    tasks = [
        ComputeTask(
            layer=0,
            expert=expert,
            load=int(router.loads[expert]),
            device=devices[int(rng.integers(len(devices)))],
        )
        for expert in router.activated_experts()
    ]
    rng.shuffle(tasks)
    return tasks


@st.composite
def routed_layers(draw):
    """(pipeline, z, router, rng) with dead, hot and ordinary experts."""
    num_experts = draw(st.sampled_from([4, 5, 8, 17, 64]))
    k = draw(st.integers(1, min(6, num_experts)))
    n_tokens = draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.random((n_tokens, num_experts))
    # Dead experts score below every live one, so their load is zero.
    n_dead = draw(st.integers(0, num_experts - k))
    scores[:, rng.permutation(num_experts)[:n_dead]] = -1.0
    if draw(st.booleans()):
        # One expert takes every row (it may be one of the dead).
        scores[:, int(rng.integers(num_experts))] = 2.0
    pipeline = pipeline_for(num_experts)
    z = rng.standard_normal((n_tokens, pipeline.model.d_model)).astype(np.float32)
    return pipeline, z, route_tokens(scores.astype(np.float32), k), rng


class TestGroupedCombineEqualsReference:
    @given(layer=routed_layers())
    @settings(max_examples=150, deadline=None)
    def test_property_bit_identical_to_moe_forward(self, layer):
        pipeline, z, router, rng = layer
        expected = pipeline.model.moe_forward(z, 0, router)
        combined = pipeline._combine_outputs(
            z, 0, router, router.activated_experts(), tasks_for(router, rng)
        )
        np.testing.assert_array_equal(combined, expected)
        assert combined.dtype == expected.dtype

    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        num_gpus=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_fused_batches_equal_solo_reference(self, sizes, num_gpus, seed):
        """Several sequences fused into one step, the layer's experts
        split over several device plans: every sequence's hidden states
        are its own solo reference forward pass."""
        model = ReferenceMoEModel(
            config(8, 2, num_layers=2), d_model=8, d_ff=16, vocab_size=32, seed=2
        )
        engine = InferenceEngine(
            model,
            make_strategy("hybrimoe"),
            paper_testbed(),
            EngineConfig(
                cache_ratio=0.25,
                seed=0,
                num_gpus=num_gpus,
            ),
            **SMALL_PROFILE,
        )
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, model.vocab_size, size=size) for size in sizes]
        result = engine.pipeline.run_batch(
            [SequenceStep(prompt, model.new_state()) for prompt in prompts], "prefill"
        )
        for prompt, hidden in zip(prompts, result.hidden):
            expected, _, _ = model.forward(prompt)
            np.testing.assert_array_equal(hidden, expected)


class TestPlanMustCoverActivatedExperts:
    """A routed task list that is not the activated set, once each, is
    an error on both row-count cases — never a dropped or doubled
    contribution."""

    @pytest.fixture(params=[1, 12], ids=["one-row", "many-rows"])
    def layer(self, request):
        pipeline = pipeline_for(64)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((request.param, pipeline.model.d_model)).astype(
            np.float32
        )
        router = route_tokens(pipeline.model.gate_scores(z, 0), 3)
        return pipeline, z, router, tasks_for(router, rng)

    def combine(self, layer, tasks):
        pipeline, z, router, _ = layer
        return pipeline._combine_outputs(
            z, 0, router, router.activated_experts(), tasks
        )

    def test_missing_task_is_rejected(self, layer):
        with pytest.raises(SchedulingError, match="routing activated"):
            self.combine(layer, layer[3][1:])

    def test_duplicated_task_is_rejected(self, layer):
        with pytest.raises(SchedulingError, match="routing activated"):
            self.combine(layer, layer[3] + layer[3][:1])

    def test_task_of_an_idle_expert_is_rejected(self, layer):
        router, tasks = layer[2], layer[3]
        idle = int(np.flatnonzero(router.loads == 0)[0])
        extra = ComputeTask(layer=0, expert=idle, load=0, device=Device.CPU)
        with pytest.raises(SchedulingError, match="routing activated"):
            self.combine(layer, tasks + [extra])

    def test_full_cover_is_accepted(self, layer):
        pipeline, z, router, tasks = layer
        np.testing.assert_array_equal(
            self.combine(layer, tasks), pipeline.model.moe_forward(z, 0, router)
        )


def test_one_contiguous_expert_call_per_activated_expert():
    """Work guard for one 512-token layer: the routed experts run once
    each, in ascending id, on C-contiguous slices of one shared buffer
    whose row counts are the router's loads."""
    n_tokens, k = 512, 3
    model = ReferenceMoEModel(
        config(16, k), d_model=8, d_ff=16, vocab_size=64, seed=3
    )
    engine = InferenceEngine(
        model,
        make_strategy("hybrimoe"),
        paper_testbed(),
        EngineConfig(cache_ratio=0.5, seed=0),
        **SMALL_PROFILE,
    )
    routers, calls = [], []
    route, expert_forward = model.route, model.expert_forward

    def recording_route(z, layer):
        routers.append(route(z, layer))
        return routers[-1]

    def recording_expert_forward(z_rows, layer, expert_id):
        calls.append((expert_id, z_rows))
        return expert_forward(z_rows, layer, expert_id)

    model.route = recording_route
    model.expert_forward = recording_expert_forward
    prompt = np.random.default_rng(7).integers(0, model.vocab_size, size=n_tokens)
    engine.generate(prompt, decode_steps=0)

    (router,) = routers
    assert [expert for expert, _ in calls] == router.activated_experts()
    assert [rows.shape[0] for _, rows in calls] == [
        int(router.loads[expert]) for expert, _ in calls
    ]
    assert sum(rows.shape[0] for _, rows in calls) == n_tokens * k
    buffers = {id(rows.base) for _, rows in calls}
    assert len(buffers) == 1 and calls[0][1].base is not None
    assert calls[0][1].base.shape == (n_tokens * k, model.d_model)
    assert all(rows.flags.c_contiguous for _, rows in calls)
