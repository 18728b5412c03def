"""The warmup profile is a per-weight-set artifact: computed once per
forward parameters and ``(seed, profile_prompt_len,
profile_decode_steps)``, aliased read-only by every engine on an equal
model however it was built, and gone when the last such model is."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import repro.models.model as model_module
import repro.routing.generator as generator
from repro.engine.factory import available_strategies, make_engine, make_fleet
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.model import ReferenceMoEModel
from repro.models.presets import get_preset
from repro.routing.generator import warmup_profile
from repro.routing.statistics import expert_activation_frequency


@pytest.fixture
def trace_runs(monkeypatch):
    """Every ``generate_trace`` call a warmup profile makes, as model ids."""
    runs = []
    real = generator.generate_trace

    def counting(model, *args, **kwargs):
        runs.append(id(model))
        return real(model, *args, **kwargs)

    monkeypatch.setattr(generator, "generate_trace", counting)
    return runs


def small_model(seed=0):
    return ReferenceMoEModel(get_preset("deepseek", num_layers=3), seed=seed)


class TestProfiledOnce:
    def test_engines_on_one_model_share_one_run(self, trace_runs):
        """24 cold engines on one model, built as the perf ledger's
        ``prefill_long`` builds them (bench/benchlib/workloads.py)."""
        model = small_model(seed=3)
        engines = [
            make_engine(model=model, cache_ratio=0.5, seed=3, strategy="hybrimoe")
            for _ in range(24)
        ]
        assert trace_runs == [id(model)]
        traces = {id(engine.runtime.warmup_trace) for engine in engines}
        assert len(traces) == 1

    def test_distinct_keys_get_distinct_profiles(self, tiny_model, trace_runs):
        base = warmup_profile(tiny_model, 0, 8, 2)
        assert warmup_profile(tiny_model, 0, 8, 2) is base
        others = [
            warmup_profile(tiny_model, 1, 8, 2),
            warmup_profile(tiny_model, 0, 9, 2),
            warmup_profile(tiny_model, 0, 8, 3),
        ]
        assert len(trace_runs) == 4
        assert len({id(p) for p in [base, *others]}) == 4
        assert others[1].trace.steps[0].n_tokens == 9
        assert others[2].trace.num_steps == 1 + 3

    def test_engines_built_by_name_share_one_run(self, trace_runs):
        engines = [
            make_engine(model="qwen2", num_layers=2, seed=41) for _ in range(2)
        ]
        assert engines[0].model.weight_set is engines[1].model.weight_set
        assert trace_runs == [id(engines[0].model)]

    def test_equal_models_share_one_profile(self, tiny_config, trace_runs):
        # A seed no other test keeps a model of alive.
        a, b = (ReferenceMoEModel(tiny_config, seed=101) for _ in range(2))
        assert a is not b
        assert warmup_profile(a, 0, 8, 2) is warmup_profile(b, 0, 8, 2)
        assert trace_runs == [id(a)]

    def test_forward_parameters_split_the_profile_not_the_weights(
        self, tiny_config, trace_runs
    ):
        a = ReferenceMoEModel(tiny_config, seed=103)
        b = ReferenceMoEModel(tiny_config, seed=103, input_coherence=0.6)
        assert b.weight_set is a.weight_set
        pa, pb = warmup_profile(a, 0, 8, 2), warmup_profile(b, 0, 8, 2)
        assert pa is not pb
        assert trace_runs == [id(a), id(b)]
        assert not np.array_equal(pa.counts, pb.counts)

    def test_an_equal_model_built_directly_builds_and_profiles_nothing(
        self, trace_runs, monkeypatch
    ):
        """The ``prefill_long`` shape: the perf ledger builds a live model
        on every pass (bench/benchlib/workloads.py) while the previous
        pass's still lives."""
        first = make_engine(model=small_model(seed=7), cache_ratio=0.5, seed=7)
        experts = []
        real = model_module.init_expert

        def counting(*args, **kwargs):
            experts.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_module, "init_expert", counting)
        runs_before = list(trace_runs)
        again = make_engine(model=small_model(seed=7), cache_ratio=0.5, seed=7)
        assert again.model is not first.model
        assert experts == [] and trace_runs == runs_before
        assert again.runtime.warmup_trace is first.runtime.warmup_trace

    def test_fleet_replicas_share_one_run(self, trace_runs):
        fleet = make_fleet(
            model="mixtral", num_layers=3, cache_ratio=0.5, seed=0, replicas=4
        )
        engines = [replica.engine for replica in fleet.replicas]
        assert len({id(engine) for engine in engines}) == 4
        assert len(trace_runs) == 1


def step_rows(result):
    return [
        (m.stage, m.start, m.end, m.hits, m.misses)
        for m in [result.prefill, *result.decode_steps]
    ]


PLATFORMS = {
    "1gpu": {},
    "2gpu": {"num_gpus": 2},
    "tiered": {
        "cpu_cache_capacity": 12,
        "hardware": replace(get_hardware_preset("paper"), disk_bw=2e9),
    },
}


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("strategy", available_strategies())
def test_aliased_profile_equals_a_private_one(strategy, platform):
    """An engine on an already-profiled shared weight set steps exactly
    as one that built and profiled its own."""
    knobs = dict(strategy=strategy, cache_ratio=0.25, seed=0, **PLATFORMS[platform])
    shared = small_model(seed=9)
    first = make_engine(model=shared, **knobs)
    first.generate(np.arange(8), decode_steps=2)  # uses the profile before it is aliased
    aliased = make_engine(model=small_model(seed=9), **knobs)
    assert aliased.model.weight_set is shared.weight_set
    assert aliased.runtime.warmup_trace is first.runtime.warmup_trace

    prompt = np.arange(24) % shared.vocab_size
    rows = step_rows(aliased.generate(prompt, decode_steps=16))
    assert len(rows) == 17
    weights_ref = weakref.ref(shared.weight_set)
    del shared, first, aliased
    gc.collect()
    assert weights_ref() is None  # the private engine builds and profiles afresh
    private = make_engine(model=small_model(seed=9), **knobs)
    assert rows == step_rows(private.generate(prompt, decode_steps=16))


def test_ranking_is_count_descending_with_ties_in_key_order(tiny_model):
    profile = warmup_profile(tiny_model, 0, 8, 2)
    counts = expert_activation_frequency(profile.trace)
    assert np.array_equal(profile.counts, counts)
    keys = [(layer, expert) for layer, expert in np.ndindex(*counts.shape)]
    assert len(set(counts.ravel())) < len(keys)  # there are ties to break
    assert list(profile.ranking) == sorted(keys, key=lambda k: (-counts[k], k))
    assert {type(i) for key in profile.ranking for i in key} == {int}


def test_profile_dies_with_the_last_model_on_its_weights(tiny_config):
    model = ReferenceMoEModel(tiny_config, seed=11)
    twin = ReferenceMoEModel(tiny_config, seed=11)
    profile = warmup_profile(model, 0, 8, 2)
    trace_ref = weakref.ref(profile.trace)
    weights_ref = weakref.ref(model.weight_set)
    del model, profile
    gc.collect()
    assert trace_ref() is warmup_profile(twin, 0, 8, 2).trace
    del twin
    gc.collect()
    assert weights_ref() is None
    assert trace_ref() is None


def test_shared_arrays_reject_writes(tiny_model):
    profile = warmup_profile(tiny_model, 0, 8, 2)
    routing = profile.trace.steps[0].layers[0]
    for array in (routing.loads, routing.mean_scores, profile.counts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1
    assert isinstance(profile.ranking, tuple)
    with pytest.raises(AttributeError):
        profile.trace = None
