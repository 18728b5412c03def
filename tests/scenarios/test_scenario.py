"""ScenarioSpec: round-trips, overrides, execution equivalence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.factory import make_serving_engine
from repro.errors import ConfigError
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    EngineSpec,
    FleetSpec,
    ScenarioSpec,
    ServingSpec,
    WorkloadRecipe,
    get_scenario,
)


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(tree, prefix=()):
    """The path of every value below the root of a JSON tree."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            paths.extend(_paths(value, prefix + (key,)))
    return paths


def _put(tree, path, value):
    for key in path[:-1]:
        tree = tree[key]
    tree[path[-1]] = value


def _tiny(name="tiny", **fleet_kwargs):
    return ScenarioSpec(
        name=name,
        workload=WorkloadRecipe(
            kind="poisson",
            params={"num_requests": 3, "arrival_rate": 4.0, "decode_steps": 2},
        ),
        fleet=FleetSpec(
            serving=ServingSpec(engine=EngineSpec(cache_ratio=0.4, num_layers=2)),
            replicas=1,
            **fleet_kwargs,
        ),
        seeds=(0, 1),
    )


class TestScenarioSpec:
    def test_roundtrip_through_json(self):
        spec = _tiny()
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_builtin_roundtrips(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("bad", ["", "Has Spaces", "UPPER", "-leading", "a/b"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ConfigError, match="scenario name"):
            _tiny(name=bad)

    def test_seeds_must_be_unique_and_nonempty(self):
        base = _tiny()
        with pytest.raises(ConfigError, match="must not be empty"):
            ScenarioSpec(name="x", workload=base.workload, seeds=())
        with pytest.raises(ConfigError, match="duplicates"):
            ScenarioSpec(name="x", workload=base.workload, seeds=(1, 1))

    def test_from_dict_rejects_unknown_keys(self):
        data = _tiny().to_dict()
        data["extra"] = 1
        with pytest.raises(ConfigError, match="unknown ScenarioSpec keys"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("name",), 5),
            (("fleet", "replicas"), "2"),
            (("fleet", "serving", "max_batch_size"), None),
            (("seeds",), "ab"),
            (("seeds", 0), 1.5),
            (("seeds", 0), True),
            (("fleet", "serving", "engine", "num_gpus"), 2.5),
            (("fleet", "serving", "preemption"), 1),
            (("workload", "kind"), ["poisson"]),
            (("workload", "params"), None),
            (("workload", "params", "num_requests"), 3.0),
            (("workload", "params", "arrival_rate"), "4"),
            (("workload", "params", "decode_steps"), True),
        ],
    )
    def test_wrong_json_type_is_a_one_line_config_error(self, path, value):
        data = _tiny().to_dict()
        _put(data, path, value)
        with pytest.raises(ConfigError, match="must be") as excinfo:
            ScenarioSpec.from_dict(data)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "path", [("fleet", "serving", "request_timeout_s"), ("fleet", "retry_backoff_s")]
    )
    def test_non_finite_timeout_or_backoff_is_a_one_line_error(self, path, literal):
        """A NaN timeout never fires; a NaN / inf backoff schedules retries
        at NaN / inf. Both JSON spellings fail to load (``null`` is how a
        spec says "no timeout")."""
        data = _tiny().to_dict()
        _put(data, path, "@")
        text = json.dumps(data).replace('"@"', literal)
        with pytest.raises(
            ConfigError, match=f"{path[-1]} must be positive and finite"
        ) as excinfo:
            ScenarioSpec.from_dict(json.loads(text))
        assert "\n" not in str(excinfo.value)

    def test_int_accepted_as_float(self):
        data = _tiny().to_dict()
        data["fleet"]["serving"]["engine"]["cache_ratio"] = 1
        assert ScenarioSpec.from_dict(data).fleet.engine.cache_ratio == 1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_json_value_anywhere_is_a_spec_or_a_one_line_error(self, data):
        """Swap one value of a valid spec's JSON for any JSON value: the
        result loads, or fails as a one-line ConfigError — never any
        other exception. A recipe param is checked against its builder's
        annotation; its range stays the builder's to check at build
        time."""
        tree = get_scenario(data.draw(st.sampled_from(BUILTIN_SCENARIOS))).to_dict()
        _put(tree, data.draw(st.sampled_from(_paths(tree))), data.draw(_JSON))
        try:
            ScenarioSpec.from_dict(tree)
        except ConfigError as err:
            assert "\n" not in str(err)

    @pytest.mark.parametrize("removed", ["engine_fast_path", "planner_fast_path", "predictor"])
    def test_from_dict_rejects_removed_engine_switches(self, removed):
        """A spec file or sweep cell saved while the engine still had a
        second core, or a cross-layer predictor, names its switch: that
        is an unknown key now."""
        data = _tiny().to_dict()
        data["fleet"]["serving"]["engine"][removed] = True
        for load, payload in (
            (ScenarioSpec.from_dict, data),
            (EngineSpec.from_dict, data["fleet"]["serving"]["engine"]),
        ):
            with pytest.raises(
                ConfigError, match=f"unknown EngineSpec keys: {removed} "
            ) as excinfo:
                load(payload)
            assert "\n" not in str(excinfo.value)

    def test_views(self):
        spec = _tiny()
        assert spec.kind == "serving"
        assert spec.strategy == "hybrimoe"
        assert spec.hardware == "paper"
        assert get_scenario("skewed-fleet").kind == "fleet"

    def test_with_overrides_strategy_hardware(self):
        spec = _tiny().with_overrides(strategy="ondemand", hardware="edge")
        assert spec.strategy == "ondemand"
        assert spec.hardware == "edge"
        # untouched axes survive
        assert spec.fleet.engine.cache_ratio == 0.4

    def test_with_overrides_seed_pins_both(self):
        spec = _tiny().with_overrides(seed=7)
        assert spec.seeds == (7,)
        assert spec.fleet.engine.seed == 7

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            _tiny().with_overrides(strategy="nope")

    def test_with_overrides_noop_returns_self(self):
        spec = _tiny()
        assert spec.with_overrides() is spec

    def test_run_equals_direct_factory_invocation(self):
        spec = _tiny()
        report = spec.run(seed=0)
        direct_engine = make_serving_engine(cache_ratio=0.4, num_layers=2)
        direct = direct_engine.serve_trace(spec.build_trace(seed=0))
        assert report.summary() == direct.summary()
        assert report.per_request_rows() == direct.per_request_rows()

    def test_run_defaults_to_first_seed(self):
        spec = _tiny()
        assert spec.run().summary() == spec.run(seed=0).summary()

    def test_disk_slow_spill_uses_no_expert_before_it_lands(self):
        """The spill-hostile builtin passes the clock's copy audit."""
        spec = get_scenario("disk-slow-spill")
        system = spec.build_system()
        system.serve_trace(spec.build_trace())
        clock = system.engine.runtime.clock
        assert len(clock.disk) > 0
        assert clock.audit_copies() == []

    def test_seed_changes_outcome(self):
        spec = _tiny()
        arrivals = lambda s: [e.arrival_time for e in spec.build_trace(s)]  # noqa: E731
        assert arrivals(0) != arrivals(1)
