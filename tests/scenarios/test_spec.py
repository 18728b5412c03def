"""Config specs: validation, JSON round-trips, factory equivalence."""

import json
import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.engine.engine import EngineConfig
from repro.engine.factory import make_engine, make_fleet, make_serving_engine
from repro.errors import ConfigError
from repro.fleet import FleetConfig
from repro.scenarios import EngineSpec, FleetSpec, ServingSpec, WorkloadRecipe
from repro.scenarios.spec import _RECIPE_BUILDERS
from repro.serving.scheduler import ServingConfig
from repro.workloads import generator as wg
from repro.workloads.generator import serving_workload


@pytest.mark.parametrize(
    "spec_type, config_type, own",
    [
        (EngineSpec, EngineConfig, {"model", "num_layers", "strategy", "hardware"}),
        (ServingSpec, ServingConfig, {"engine"}),
        (FleetSpec, FleetConfig, {"serving"}),
    ],
)
def test_spec_declares_only_what_its_config_lacks(spec_type, config_type, own):
    """Each runtime config's knobs are declared once: its spec inherits them."""
    assert issubclass(spec_type, config_type)
    assert {f.name for f in fields(spec_type)} - {f.name for f in fields(config_type)} == own


class TestEngineSpec:
    def test_roundtrip_through_json(self):
        spec = EngineSpec(
            model="qwen2",
            strategy="adapmoe",
            cache_ratio=0.3,
            hardware="edge",
            num_layers=4,
            seed=7,
            num_gpus=2,
            placement="round_robin",
            cpu_cache_capacity=16,
            cpu_cache_policy="mrs",
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert EngineSpec.from_dict(data) == spec

    def test_saved_placement_key_still_loads(self):
        """Specs saved while placement had several values carry the key;
        its one value loads as the default."""
        assert EngineSpec.from_dict({"placement": "round_robin"}) == EngineSpec()

    def test_to_dict_is_plain_json(self):
        data = EngineSpec(seed=np.int64(3)).to_dict()
        json.dumps(data)
        assert type(data["seed"]) is int

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "gpt5"},
            {"strategy": "nope"},
            {"hardware": "tpu"},
            {"cache_ratio": 1.5},
            {"num_layers": 0},
            {"num_gpus": 0},
            {"placement": "nope"},
            {"placement": "load_aware"},
            {"cpu_cache_policy": "fifo"},
            {"cpu_cache_capacity": -1},
            {"cache_ratio": float("nan")},
        ],
    )
    def test_invalid_fields_raise_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            EngineSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cpu_cache_capacity": 0},  # the degenerate GPU-or-disk config
            {"cache_ratio": 0.0},  # no GPU cache at all
            {"cache_ratio": float("nan")},
        ],
    )
    def test_spec_and_config_agree_eagerly(self, kwargs):
        """Shared fields are accepted or rejected exactly as EngineConfig
        does, at construction (the first two used to disagree)."""
        try:
            EngineConfig(**kwargs)
        except ConfigError:
            with pytest.raises(ConfigError):
                EngineSpec(**kwargs)
        else:
            spec = EngineSpec(**kwargs)
            assert isinstance(spec, EngineConfig)
            config = EngineConfig(**kwargs)
            assert all(getattr(spec, f.name) == getattr(config, f.name) for f in fields(config))

    def test_engine_runs_the_plain_engine_config(self):
        assert {f.name for f in fields(EngineConfig)} == {
            "cache_ratio", "seed", "num_gpus", "placement", "cpu_cache_capacity",
            "cpu_cache_policy",
        }
        engine = EngineSpec(num_layers=2, cache_ratio=0.25, num_gpus=2).build()
        assert engine.config == EngineConfig(cache_ratio=0.25, num_gpus=2)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown EngineSpec keys"):
            EngineSpec.from_dict({"modle": "deepseek"})

    @pytest.mark.parametrize(
        "spec_type, path",
        [(EngineSpec, ()), (ServingSpec, ("engine",)), (FleetSpec, ("serving", "engine"))],
        ids=["engine", "serving", "fleet"],
    )
    def test_removed_predictor_key_is_unknown(self, spec_type, path):
        """The cross-layer predictors are gone: a spec file that still
        names one fails in one line instead of running without it, at
        whatever depth its engine section sits."""
        data = spec_type().to_dict()
        engine = data
        for key in path:
            engine = engine[key]
        engine["predictor"] = "transition"
        with pytest.raises(ConfigError, match=r"unknown EngineSpec keys: predictor \(") as err:
            spec_type.from_dict(data)
        assert "\n" not in str(err.value)

    def test_spec_is_hashable(self):
        assert len({EngineSpec(), EngineSpec(), EngineSpec(seed=1)}) == 2


class TestServingSpec:
    def test_roundtrip_nests_engine(self):
        spec = ServingSpec(
            engine=EngineSpec(strategy="ondemand", num_layers=3),
            max_batch_size=4,
            prefill_chunk_tokens=32,
            preemption=True,
            request_timeout_s=2.0,
            shed_queue_depth=10,
            shed_resume_depth=5,
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert ServingSpec.from_dict(data) == spec

    def test_engine_field_must_be_spec(self):
        with pytest.raises(ConfigError, match="must be an EngineSpec"):
            ServingSpec(engine={"model": "deepseek"})

    def test_serving_knobs_validated_via_serving_config(self):
        with pytest.raises(ConfigError):
            ServingSpec(max_batch_size=0)
        with pytest.raises(ConfigError):
            ServingSpec(shed_resume_depth=4)  # resume without depth

    def test_is_a_serving_config(self):
        spec = ServingSpec(max_batch_size=2, preemption=True)
        assert isinstance(spec, ServingConfig)
        assert (spec.max_batch_size, spec.preemption) == (2, True)


class TestFleetSpec:
    def test_roundtrip_nests_serving(self):
        spec = FleetSpec(
            serving=ServingSpec(engine=EngineSpec(num_layers=2)),
            replicas=3,
            router="least_loaded",
            max_retries=2,
            retry_backoff_s=0.25,
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert FleetSpec.from_dict(data) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replicas": 0},
            {"router": "nope"},
            {"max_retries": -1},
            {"retry_backoff_s": 0.0},
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ConfigError):
            FleetSpec(**kwargs)

    def test_engine_shortcut(self):
        spec = FleetSpec(serving=ServingSpec(engine=EngineSpec(seed=9)), replicas=2)
        assert spec.engine.seed == 9


#: Per recipe kind: only its required params, and the trace its builder
#: (or arrival builder + serving_workload) gives for them at a seed.
_REQUIRED_ONLY = {
    "poisson": (
        {"num_requests": 3, "arrival_rate": 4.0},
        lambda seed: wg.serving_workload(num_requests=3, arrival_rate=4.0, seed=seed),
    ),
    "diurnal": (
        {"num_requests": 3, "base_rate": 1.0, "peak_rate": 5.0},
        lambda seed: wg.serving_workload(
            arrival_times=wg.diurnal_arrivals(3, 1.0, 5.0, seed=seed), seed=seed
        ),
    ),
    "bursty": (
        {"num_requests": 3, "base_rate": 1.0, "burst_rate": 9.0},
        lambda seed: wg.serving_workload(
            arrival_times=wg.bursty_arrivals(3, 1.0, 9.0, seed=seed), seed=seed
        ),
    ),
    "skewed": (
        {"num_requests": 3, "arrival_rate": 4.0},
        lambda seed: wg.skewed_serving_workload(
            num_requests=3, arrival_rate=4.0, seed=seed
        ),
    ),
    "chat": (
        {"num_sessions": 2},
        lambda seed: wg.chat_serving_workload(num_sessions=2, seed=seed),
    ),
}


class TestWorkloadRecipe:
    def test_roundtrip(self):
        recipe = WorkloadRecipe(
            kind="poisson",
            params={"num_requests": 4, "arrival_rate": 2.0, "decode_steps": 2},
        )
        data = json.loads(json.dumps(recipe.to_dict()))
        assert WorkloadRecipe.from_dict(data) == recipe

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload kind"):
            WorkloadRecipe(kind="sinusoid", params={})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown 'poisson' workload params"):
            WorkloadRecipe(
                kind="poisson",
                params={"num_requests": 4, "arrival_rate": 2.0, "ratee": 1},
            )

    def test_missing_required_param_rejected(self):
        with pytest.raises(ConfigError, match="missing required params"):
            WorkloadRecipe(kind="poisson", params={"num_requests": 4})

    @pytest.mark.parametrize("kind", ["diurnal", "bursty"])
    def test_arrival_start_is_not_a_param(self, kind):
        """A trace starts at time zero: the arrival builders' ``start``
        keyword is not a recipe param."""
        rate = "peak_rate" if kind == "diurnal" else "burst_rate"
        params = {"num_requests": 4, "base_rate": 1.0, rate: 2.0, "start": 1.0}
        with pytest.raises(ConfigError, match=f"unknown '{kind}' workload params"):
            WorkloadRecipe(kind=kind, params=params)

    @pytest.mark.parametrize(
        "params",
        [
            {"num_requests": 3.0, "arrival_rate": 4.0},
            {"num_requests": 3, "arrival_rate": "4"},
            {"num_requests": 3, "arrival_rate": 4.0, "priority_mix": {"batch": "1"}},
        ],
    )
    def test_wrong_param_type_rejected(self, params):
        with pytest.raises(ConfigError, match="'poisson' workload param .* must be"):
            WorkloadRecipe(kind="poisson", params=params)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("poisson", {"num_requests": -3, "arrival_rate": 1.0}, "num_requests"),
            ("poisson", {"num_requests": 3, "arrival_rate": -1.0}, "arrival rate"),
            (
                "poisson",
                {"num_requests": 3, "arrival_rate": 1.0, "decode_steps": -1},
                "decode_steps",
            ),
            (
                "poisson",
                {"num_requests": 3, "arrival_rate": 1.0, "priority_mix": {"batch": 0.5}},
                "priority_mix",
            ),
            (
                "poisson",
                {
                    "num_requests": 3,
                    "arrival_rate": 1.0,
                    "priority_mix": {"interactive": 1.0},
                    "class_deadlines": {"interactive": float("nan")},
                },
                "tbt_deadline",
            ),
            ("diurnal", {"num_requests": 0, "base_rate": 1.0, "peak_rate": 2.0}, "num_requests"),
            ("bursty", {"num_requests": 3, "base_rate": 1.0, "burst_rate": -2.0}, "rate"),
            ("skewed", {"num_requests": 3, "arrival_rate": 0.0}, "arrival rate"),
            ("chat", {"num_sessions": 0}, "num_sessions"),
        ],
    )
    def test_out_of_range_param_rejected_at_construction(self, kind, params, message):
        """The builders' own range checks run when the recipe is made,
        not first inside a sweep worker."""
        with pytest.raises(ConfigError, match=f"'{kind}' workload: .*{message}") as err:
            WorkloadRecipe(kind=kind, params=params)
        assert "\n" not in str(err.value)

    def test_int_param_accepted_as_float(self):
        recipe = WorkloadRecipe(kind="poisson", params={"num_requests": 3, "arrival_rate": 4})
        direct = serving_workload(num_requests=3, arrival_rate=4.0, seed=2)
        assert pickle.dumps(recipe.build(seed=2)) == pickle.dumps(direct)

    def test_build_matches_generator(self):
        recipe = WorkloadRecipe(
            kind="poisson",
            params={"num_requests": 3, "arrival_rate": 4.0, "decode_steps": 2},
        )
        built = recipe.build(seed=5)
        direct = serving_workload(
            num_requests=3, arrival_rate=4.0, decode_steps=2, seed=5
        )
        assert [e.arrival_time for e in built] == [e.arrival_time for e in direct]
        for b, d in zip(built, direct):
            np.testing.assert_array_equal(
                b.workload.prompt_tokens, d.workload.prompt_tokens
            )

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", sorted(_RECIPE_BUILDERS))
    def test_required_params_build_the_builders_trace(self, kind, seed):
        """A recipe given only its required params takes every other
        value from its builder: same trace as calling the builder."""
        params, direct = _REQUIRED_ONLY[kind]
        built = WorkloadRecipe(kind=kind, params=params).build(seed=seed)
        assert pickle.dumps(built) == pickle.dumps(direct(seed))

    def test_every_kind_has_a_builder_case(self):
        assert set(_REQUIRED_ONLY) == set(_RECIPE_BUILDERS)

    def test_capped_clamps_only_downward(self):
        recipe = WorkloadRecipe(
            kind="poisson",
            params={"num_requests": 8, "arrival_rate": 2.0, "decode_steps": 6},
        )
        small = recipe.capped(max_requests=3, max_steps=2)
        assert small.params["num_requests"] == 3
        assert small.params["decode_steps"] == 2
        # caps above the recipe's own values are byte-identical no-ops
        assert recipe.capped(max_requests=100, max_steps=100) == recipe

    def test_chat_cap_targets_sessions(self):
        recipe = WorkloadRecipe(kind="chat", params={"num_sessions": 8})
        assert recipe.capped(max_requests=2).params["num_sessions"] == 2


class TestFactorySpecEquivalence:
    """make_*(spec=...) must be bit-identical to the legacy kwargs."""

    def test_engine_spec_equals_kwargs(self):
        spec = EngineSpec(
            strategy="hybrimoe", cache_ratio=0.3, num_layers=2, seed=1
        )
        by_spec = make_engine(spec=spec)
        by_kwargs = make_engine(
            strategy="hybrimoe", cache_ratio=0.3, num_layers=2, seed=1
        )
        prompt = np.arange(8) % by_spec.model.vocab_size
        a = by_spec.generate(prompt, decode_steps=2)
        b = by_kwargs.generate(prompt, decode_steps=2)
        assert a.prefill == b.prefill
        assert a.decode_steps == b.decode_steps
        assert a.summary() == b.summary()

    def test_serving_spec_equals_kwargs(self):
        spec = ServingSpec(
            engine=EngineSpec(cache_ratio=0.4, num_layers=2),
            max_batch_size=2,
        )
        trace = serving_workload(num_requests=3, arrival_rate=4.0, decode_steps=2)
        a = make_serving_engine(spec=spec).serve_trace(trace)
        b = make_serving_engine(
            cache_ratio=0.4, num_layers=2, max_batch_size=2
        ).serve_trace(trace)
        assert a.summary() == b.summary()
        assert a.per_request_rows() == b.per_request_rows()

    def test_fleet_spec_equals_kwargs(self):
        spec = FleetSpec(
            serving=ServingSpec(
                engine=EngineSpec(cache_ratio=0.4, num_layers=2),
                max_batch_size=2,
            ),
            replicas=2,
            router="least_loaded",
        )
        trace = serving_workload(num_requests=4, arrival_rate=6.0, decode_steps=2)
        a = make_fleet(spec=spec).serve_trace(trace)
        b = make_fleet(
            cache_ratio=0.4,
            num_layers=2,
            max_batch_size=2,
            replicas=2,
            router="least_loaded",
        ).serve_trace(trace)
        assert a.summary() == b.summary()
        assert a.merged.per_request_rows() == b.merged.per_request_rows()

    def test_build_methods_route_through_factories(self):
        engine = EngineSpec(num_layers=2).build()
        assert engine.model.config.num_layers == 2
        serving = ServingSpec(engine=EngineSpec(num_layers=2)).build()
        assert serving.engine.model.config.num_layers == 2
        fleet = FleetSpec(
            serving=ServingSpec(engine=EngineSpec(num_layers=2)), replicas=2
        ).build()
        assert len(fleet.replicas) == 2

    @pytest.mark.parametrize(
        "factory", [make_engine, make_serving_engine, make_fleet]
    )
    def test_spec_excludes_other_kwargs(self, factory):
        spec = {
            make_engine: EngineSpec(num_layers=2),
            make_serving_engine: ServingSpec(engine=EngineSpec(num_layers=2)),
            make_fleet: FleetSpec(
                serving=ServingSpec(engine=EngineSpec(num_layers=2)), replicas=2
            ),
        }[factory]
        with pytest.raises(ConfigError, match="fold these arguments"):
            factory(cache_ratio=0.9, spec=spec)

    @pytest.mark.parametrize(
        "factory", [make_engine, make_serving_engine, make_fleet]
    )
    def test_spec_type_checked(self, factory):
        with pytest.raises(ConfigError, match="spec must be"):
            factory(spec=object())
