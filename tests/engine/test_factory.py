"""Factory construction paths."""

import gc
import weakref

import numpy as np
import pytest

from repro.engine.engine import EngineConfig
from repro.engine.factory import (
    available_strategies,
    make_engine,
    make_fleet,
    make_serving_engine,
    make_strategy,
)
from repro.errors import ConfigError
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.model import ReferenceMoEModel
from repro.models.presets import get_preset, preset_model
from repro.scenarios.spec import EngineSpec, FleetSpec, ServingSpec, knob_fields


class TestMakeStrategy:
    def test_all_names_constructible(self):
        for name in available_strategies():
            assert make_strategy(name).name in (name, "hybrimoe")

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_strategy("vllm")

    def test_kwargs_forwarded(self):
        strategy = make_strategy("hybrimoe", scheduling=False)
        assert strategy.scheduling is False


class TestMakeEngine:
    def test_defaults(self):
        engine = make_engine(num_layers=2)
        assert engine.model.config.name.startswith("deepseek")
        assert engine.strategy.name == "hybrimoe"

    def test_model_instance_passthrough(self, tiny_model):
        engine = make_engine(model=tiny_model, num_layers=None)
        assert engine.model is tiny_model

    def test_live_preset_model_bypasses_the_registry(self):
        live = ReferenceMoEModel(get_preset("qwen2", num_layers=2), seed=31)
        assert make_engine(model=live, seed=31).model is live
        assert preset_model("qwen2", 2, 31) is not live

    def test_strategy_kwargs_with_instance_rejected(self, tiny_model):
        strategy = make_strategy("ondemand")
        with pytest.raises(ConfigError):
            make_engine(
                model=tiny_model, strategy=strategy, strategy_kwargs={"x": 1}
            )

    def test_hardware_preset_by_name(self):
        engine = make_engine(num_layers=2, hardware="pcie-fast")
        assert engine.runtime is not None

    def test_generation_runs(self):
        engine = make_engine(model="mixtral", num_layers=2, cache_ratio=0.25, seed=1)
        result = engine.generate(np.arange(8), decode_steps=2)
        assert result.ttft > 0


def _engine_of(system):
    if hasattr(system, "replicas"):
        return system.replicas[0].engine
    return getattr(system, "engine", system)


def _built_value(system, knob: str):
    """What the built object says ``knob`` is."""
    engine = _engine_of(system)
    if knob in EngineSpec.__dataclass_fields__:
        shape = engine.model.config.routed_expert_shape
        spec_only = {
            "model": lambda: engine.model.config.name.split("-")[0],
            "num_layers": lambda: engine.model.config.num_layers,
            "strategy": lambda: engine.strategy.name,
            "hardware": lambda: next(
                name
                for name in ("paper", "pcie-fast")
                if AnalyticCostModel(get_hardware_preset(name)).transfer_time(shape)
                == engine.runtime.cost_actual.transfer_time(shape)
            ),
        }
        return spec_only[knob]() if knob in spec_only else getattr(engine.config, knob)
    if knob in ServingSpec.__dataclass_fields__:
        return getattr(getattr(system, "serving", system.config), knob)
    fleet_only = {"replicas": lambda: len(system.replicas), "router": lambda: system.policy.name}
    return fleet_only[knob]() if knob in fleet_only else getattr(system.config, knob)


def _factory_knobs():
    for factory, spec_type in (
        (make_engine, EngineSpec),
        (make_serving_engine, ServingSpec),
        (make_fleet, FleetSpec),
    ):
        for knob, field in knob_fields(spec_type).items():
            yield pytest.param(factory, knob, field, id=f"{factory.__name__}-{knob}")


class TestKnobWiring:
    """Every spec field is a working keyword of every factory above it.

    Driven by ``dataclasses.fields``: a knob added to a spec (and to
    the runtime config that reads it) is covered with no edit here.
    """

    @pytest.mark.parametrize("factory, knob, field", _factory_knobs())
    def test_keyword_reaches_built_object(self, factory, knob, field, knob_sample):
        overrides = {"num_layers": 2, **knob_sample(knob, field)}
        system = factory(**overrides)
        assert _built_value(system, knob) == overrides[knob]
        assert overrides[knob] != field.default

    @pytest.mark.parametrize("factory", [make_engine, make_serving_engine, make_fleet])
    def test_unknown_knob_is_a_one_line_config_error(self, factory):
        with pytest.raises(ConfigError, match="unknown knob.*cach_ratio.*cache_ratio") as err:
            factory(cach_ratio=0.3)
        assert "\n" not in str(err.value)
        assert factory.__name__ in str(err.value)

    @pytest.mark.parametrize("factory", [make_engine, make_serving_engine, make_fleet])
    @pytest.mark.parametrize(
        "keyword, value",
        [("engine_config", EngineConfig()), ("model_kwargs", {"input_coherence": 0.5})],
    )
    def test_second_configuration_is_an_unknown_knob(self, factory, keyword, value):
        """Knobs (or a spec) are the one configuration: a ready-made
        ``EngineConfig`` or extra model arguments beside them are
        rejected, not silently preferred."""
        with pytest.raises(ConfigError, match=f"unknown knob.*{keyword}") as err:
            factory(cache_ratio=0.25, num_layers=2, **{keyword: value})
        assert "\n" not in str(err.value)

    def test_knob_of_a_higher_layer_is_unknown_below_it(self):
        with pytest.raises(ConfigError, match="unknown knob.*max_batch_size"):
            make_engine(max_batch_size=4)

    def test_out_of_range_knob_rejected_before_building(self):
        with pytest.raises(ConfigError, match="cpu_cache_capacity must be non-negative"):
            make_fleet(cpu_cache_capacity=-1, replicas=2)

    def test_live_objects_may_accompany_a_spec(self):
        from repro.hardware.faults import Fault, FaultSchedule

        faults = FaultSchedule(
            [Fault("gpu_straggler", 0, at_time=0.0, duration=1.0, severity=2.0)]
        )
        spec = ServingSpec(engine=EngineSpec(num_layers=2))
        assert make_serving_engine(spec=spec, faults=faults) is not None
        with pytest.raises(ConfigError, match="fold these arguments.*strategy"):
            make_serving_engine(spec=spec, strategy=make_strategy("ondemand"))


class TestSharedModel:
    """Engines built by name on one ``(model, num_layers, seed)`` run
    on one model instance, and behave as if each had its own."""

    KNOBS = dict(model="qwen2", num_layers=2, seed=33, cache_ratio=0.5)

    def test_fleet_replicas_share_one_model(self):
        fleet = make_fleet(replicas=2, **self.KNOBS)
        engines = [replica.engine for replica in fleet.replicas]
        assert len({id(engine) for engine in engines}) == 2
        assert engines[0].model is engines[1].model

    def test_serving_beside_a_twin_equals_serving_alone(self):
        from repro.workloads import serving_workload

        def serve(serving):
            trace = serving_workload(num_requests=6, arrival_rate=8.0, decode_steps=4)
            return serving.serve_trace(trace).per_request_rows()

        alone = make_serving_engine(max_batch_size=4, **self.KNOBS)
        model_ref = weakref.ref(alone.engine.model)
        rows = serve(alone)
        del alone
        gc.collect()
        assert model_ref() is None  # the twins below build a fresh model

        first = make_serving_engine(max_batch_size=4, **self.KNOBS)
        serve(first)  # uses the model and its profile before they are shared
        second = make_serving_engine(max_batch_size=4, **self.KNOBS)
        assert second.engine.model is first.engine.model
        assert len(rows) == 6
        assert serve(second) == rows
