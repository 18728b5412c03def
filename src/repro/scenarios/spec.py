"""Typed, JSON-round-trippable configuration specs.

Three frozen dataclasses compose the way the systems they configure
do::

    EngineSpec                 one inference engine (model x strategy x
                               hardware x cache topology)
      -> ServingSpec           a continuous-batching serving loop over it
        -> FleetSpec           M replica serving engines behind a router

plus :class:`WorkloadRecipe`, a declarative request-trace description.

The specs are the **one place a knob is declared**: its name, type and
default are a spec field, its meaning is that field's entry in the
class docstring. ``make_engine`` / ``make_serving_engine`` /
``make_fleet`` take the same names as loose keywords and fold them into
a spec (:func:`spec_from_knobs`); ``cli run|serve`` derive their flags'
types and defaults from the fields (:func:`knob_fields`). Every spec

- validates eagerly — a value of the wrong type, a bad name or a bad
  range raises a one-line :class:`~repro.errors.ConfigError` at
  construction, not at build time deep inside a sweep worker. Each
  field's annotation is its type contract, checked once in the spec
  base class. :class:`EngineSpec`, :class:`ServingSpec` and
  :class:`FleetSpec` each *is* its runtime config (``EngineConfig``,
  ``ServingConfig``, ``FleetConfig``): it inherits the config's knobs
  and range checks and adds only what names the system around them,
  so spec and config cannot disagree;
- round-trips through plain JSON dicts: ``Spec.from_dict(s.to_dict())
  == s`` and ``s.to_dict()`` contains only JSON primitives — this is
  what lets the sweep runner ship specs to worker processes and stamp
  them into resumable per-cell output files;
- builds the real object through its factory (``build()``), the same
  path keyword calls take, so a spec-built engine is **bit-identical**
  to the equivalent keyword call (the spec-equivalence tests enforce
  it).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import numbers
import types
import typing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.engine.engine import EngineConfig
from repro.errors import ConfigError
from repro.fleet.fleet import FleetConfig, FleetRouter
from repro.serving.scheduler import ServingConfig
from repro.workloads import generator as wg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import InferenceEngine
    from repro.serving.engine import ServingEngine
    from repro.workloads.generator import ArrivedWorkload

__all__ = [
    "EngineSpec",
    "ServingSpec",
    "FleetSpec",
    "WorkloadRecipe",
    "knob_fields",
    "spec_from_knobs",
]


def _listed(names) -> str:
    """Names joined for a one-line error, control characters escaped."""
    return ", ".join(sorted(repr(str(name))[1:-1] for name in names))


def _check_dict_keys(cls, data: Mapping[str, Any]) -> None:
    """Reject unknown keys so typos fail loudly instead of silently."""
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"{cls.__name__}.from_dict needs a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} keys: {_listed(unknown)} (known: {_listed(known)})"
        )


def _plain(value):
    """Coerce a spec field value to JSON-representable primitives."""
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _check_name(what: str, name: str, known) -> None:
    if name not in known:
        raise ConfigError(
            f"unknown {what} {name!r} (known: {', '.join(sorted(known))})"
        )


def _describe(hint) -> str:
    """A field annotation in words, for the type-mismatch error."""
    if hint is type(None):
        return "None"
    if hint is Any:
        return "anything"
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(_describe(arg) for arg in args)
    if origin is tuple:
        return f"a list of {args[0].__name__}"
    if origin is dict:
        return f"a mapping of {args[0].__name__} to {_describe(args[1])}"
    name = hint.__name__
    return f"{'an' if name[0] in 'aeiouAEIOU' else 'a'} {name}"


def _conforms(value, hint) -> bool:
    """Whether ``value`` has the type a spec field annotation names.

    A ``bool`` is not an ``int``, an ``int`` is a ``float``, a
    ``tuple[X, ...]`` field also takes a JSON list, and a ``dict[K, V]``
    field any mapping of ``K`` keys to ``V`` values.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is Any:
        return True
    if hint is type(None):
        return value is None
    if origin in (typing.Union, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if origin is tuple:
        return isinstance(value, (tuple, list)) and all(
            _conforms(item, args[0]) for item in value
        )
    if origin is dict:
        return isinstance(value, Mapping) and all(
            _conforms(key, args[0]) and _conforms(item, args[1])
            for key, item in value.items()
        )
    if hint is int or hint is float:
        number = numbers.Integral if hint is int else numbers.Real
        return isinstance(value, number) and not isinstance(value, bool)
    return isinstance(value, hint)


@functools.cache
def _hints(spec_type) -> dict[str, Any]:
    """Each field of ``spec_type`` with its resolved annotation."""
    hints = typing.get_type_hints(spec_type)
    return {f.name: hints[f.name] for f in dataclasses.fields(spec_type)}


def _nested(spec_type) -> dict[str, type]:
    """The fields of ``spec_type`` that hold another spec, with its class."""
    return {
        name: hint
        for name, hint in _hints(spec_type).items()
        if isinstance(hint, type) and issubclass(hint, _Spec)
    }


def knob_fields(spec_type) -> dict[str, dataclasses.Field]:
    """Every knob of ``spec_type`` by name, composed specs flattened in.

    ``knob_fields(FleetSpec)`` is the whole flat keyword namespace of
    :func:`~repro.engine.factory.make_fleet`: the fleet's own fields,
    its serving spec's and that one's engine spec's.
    """
    nested = _nested(spec_type)
    knobs: dict[str, dataclasses.Field] = {}
    for spec_field in dataclasses.fields(spec_type):
        if spec_field.name in nested:
            knobs.update(knob_fields(nested[spec_field.name]))
        else:
            knobs[spec_field.name] = spec_field
    return knobs


def spec_from_knobs(spec_type, knobs: Mapping[str, Any], who: str):
    """Build a ``spec_type`` from flat knob keywords (the rest default).

    The inverse view of :func:`knob_fields`: each keyword lands in the
    (possibly nested) spec that declares it. ``who`` names the caller
    in the one-line error an unknown keyword raises.
    """
    valid = knob_fields(spec_type)
    unknown = sorted(set(knobs) - set(valid))
    if unknown:
        raise ConfigError(
            f"{who} got unknown knob(s) {', '.join(unknown)} "
            f"(valid {spec_type.__name__} knobs: {', '.join(sorted(valid))})"
        )

    def build(cls):
        kwargs = {name: build(nested) for name, nested in _nested(cls).items()}
        for spec_field in dataclasses.fields(cls):
            if spec_field.name in knobs:
                kwargs[spec_field.name] = knobs[spec_field.name]
        return cls(**kwargs)

    return build(spec_type)


class _Spec:
    """Type checks and the JSON round-trip, shared by every spec.

    Construction first checks each field's value against the field's
    annotation (see :func:`_conforms`), so a JSON value of the wrong
    type fails as a one-line :class:`~repro.errors.ConfigError` before
    any range check compares it; then the next ``__post_init__`` in
    the MRO (a runtime config's range checks) runs.

    A field annotated with another spec class (``engine`` / ``serving``
    / ``workload`` / ``fleet``) composes that spec. ``to_dict`` lists a
    spec's own fields first and the specs it composes last,
    recursively; ``from_dict`` is its inverse and rejects unknown keys
    so typos fail loudly.
    """

    def __post_init__(self) -> None:
        for name, hint in _hints(type(self)).items():
            value = getattr(self, name)
            if not _conforms(value, hint):
                raise ConfigError(
                    f"{type(self).__name__}.{name} must be {_describe(hint)}, "
                    f"got {type(value).__name__} {value!r:.60}"
                )
        checks = getattr(super(), "__post_init__", None)
        if checks is not None:
            checks()

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        nested = _nested(type(self))
        data = {
            f.name: _plain(getattr(self, f.name))
            for f in dataclasses.fields(self)
            if f.name not in nested
        }
        for name in nested:
            data[name] = getattr(self, name).to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        _check_dict_keys(cls, data)
        data = dict(data)
        missing = [
            f.name
            for f in dataclasses.fields(cls)
            if f.name not in data
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ]
        if missing:
            raise ConfigError(
                f"{cls.__name__}.from_dict needs {', '.join(map(repr, missing))}"
            )
        for name, nested in _nested(cls).items():
            if name in data:
                data[name] = nested.from_dict(data[name])
        return cls(**data)


@dataclass(frozen=True)
class EngineSpec(_Spec, EngineConfig):
    """Declarative recipe for one :class:`~repro.engine.engine.InferenceEngine`.

    An :class:`~repro.engine.engine.EngineConfig` plus the presets it
    runs on: the engine knobs are the inherited config fields
    (documented, and range-checked, there), and with the four below
    they are the keyword namespace of
    :func:`~repro.engine.factory.make_engine` and the engine flags of
    ``cli run|serve``. The engine runs with the plain ``EngineConfig``
    part. A spec only admits *preset names* (never
    model/strategy/profile instances), so it is pure data —
    comparable, hashable and JSON-round-trippable.

    Attributes
    ----------
    model:
        Model preset name (``"mixtral"``, ``"qwen2"``, ``"deepseek"``).
    num_layers:
        Optional layer-count override for fast runs.
    strategy:
        Strategy short name (``"hybrimoe"``, ``"ondemand"``, ...).
    hardware:
        Hardware preset name (``"paper"``, ``"disk-slow"``, ``"edge"``, ...).
    """

    model: str = "deepseek"
    num_layers: int | None = None
    strategy: str = "hybrimoe"
    hardware: str = "paper"

    def __post_init__(self) -> None:
        super().__post_init__()
        # Imported here: these packages sit below the factory stack,
        # which imports this module lazily.
        from repro.engine.factory import available_strategies
        from repro.hardware.platform_presets import HARDWARE_PRESETS
        from repro.models.presets import MODEL_PRESETS

        _check_name("model preset", self.model, MODEL_PRESETS)
        _check_name("strategy", self.strategy, available_strategies())
        _check_name("hardware preset", self.hardware, HARDWARE_PRESETS)
        if self.num_layers is not None and self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")

    def build(self) -> "InferenceEngine":
        """Construct the engine this spec describes (via ``make_engine``)."""
        from repro.engine.factory import make_engine

        return make_engine(spec=self)


@dataclass(frozen=True)
class ServingSpec(_Spec, ServingConfig):
    """Declarative recipe for a continuous-batching serving engine.

    A :class:`~repro.serving.scheduler.ServingConfig` plus the
    :class:`EngineSpec` it serves on: the serving-loop knobs are the
    inherited config fields (documented there), and they are the extra
    keywords of :func:`~repro.engine.factory.make_serving_engine` and
    the ``serving`` / ``resilience`` flags of ``cli serve``. The serving
    engine runs with the plain ``ServingConfig`` part. The defaults
    keep the historical FCFS loop bit-identically.
    """

    engine: EngineSpec = field(default_factory=EngineSpec)

    def build(self) -> "ServingEngine":
        """Construct the serving engine (via ``make_serving_engine``)."""
        from repro.engine.factory import make_serving_engine

        return make_serving_engine(spec=self)


@dataclass(frozen=True)
class FleetSpec(_Spec, FleetConfig):
    """Declarative recipe for an M-replica serving fleet.

    A :class:`~repro.fleet.fleet.FleetConfig` plus the
    :class:`ServingSpec` every replica runs: the fleet knobs are the
    inherited config fields (documented, and range-checked, there), and
    they are the extra keywords of
    :func:`~repro.engine.factory.make_fleet` and the ``fleet`` / retry
    flags of ``cli serve``. The router runs with the plain
    ``FleetConfig`` part.

    Attributes
    ----------
    serving:
        The serving engine every replica runs (a homogeneous pool,
        required for the merged fleet report).
    """

    serving: ServingSpec = field(default_factory=ServingSpec)

    @property
    def engine(self) -> EngineSpec:
        """Shortcut to the per-replica engine spec."""
        return self.serving.engine

    def build(self) -> "FleetRouter":
        """Construct the fleet router (via ``make_fleet``).

        Valid for any ``replicas >= 1``; callers that want the
        scenario-layer "1 replica = bare engine" convention should
        check :attr:`replicas` and build ``self.serving`` instead.
        """
        from repro.engine.factory import make_fleet

        return make_fleet(spec=self)


# ----------------------------------------------------------------------
# workload recipes
# ----------------------------------------------------------------------
#: Each workload kind: the params its recipes must give, and its
#: builders. With two builders, the first draws the arrival instants and
#: the second serves them as ``arrival_times``. Every other param, and
#: every default, is the builders' own: a recipe accepts exactly their
#: keywords and passes on only the params it was given.
_RECIPE_BUILDERS: dict[str, tuple[tuple[str, ...], tuple[Any, ...]]] = {
    "poisson": (("num_requests", "arrival_rate"), (wg.serving_workload,)),
    "diurnal": (
        ("num_requests", "base_rate", "peak_rate"),
        (wg.diurnal_arrivals, wg.serving_workload),
    ),
    "bursty": (
        ("num_requests", "base_rate", "burst_rate"),
        (wg.bursty_arrivals, wg.serving_workload),
    ),
    "skewed": (("num_requests", "arrival_rate"), (wg.skewed_serving_workload,)),
    "chat": (("num_sessions",), (wg.chat_serving_workload,)),
}

#: Builder keywords that are not recipe params: a recipe fills in the
#: build seed and vocab itself, and its trace starts at time zero.
_NOT_RECIPE_PARAMS = frozenset({"seed", "vocab_size", "start"})
#: A trace's arrival instants come from exactly one source — the
#: required params or the first builder — so the alternatives go unused.
_ARRIVAL_KEYS = frozenset({"arrival_rate", "arrival_times"})


def _keywords(builder) -> frozenset[str]:
    return frozenset(inspect.signature(builder).parameters)


@functools.cache
def _recipe_params(kind: str) -> dict[str, Any]:
    """Each param a ``kind`` recipe accepts, with its builder's annotation.

    A keyword two builders share takes the first builder's annotation;
    an unannotated keyword takes any value.
    """
    required, builders = _RECIPE_BUILDERS[kind]
    excluded = _NOT_RECIPE_PARAMS | (_ARRIVAL_KEYS - set(required))
    params: dict[str, Any] = {}
    for builder in builders:
        hints = typing.get_type_hints(builder)
        for name in _keywords(builder) - excluded:
            params.setdefault(name, hints.get(name, Any))
    return params


#: Parameters clamped by :meth:`WorkloadRecipe.capped` — the sweep
#: runner's ``--requests`` / ``--steps`` smoke caps.
_REQUEST_CAP_KEYS = ("num_requests", "num_sessions")
_STEP_CAP_KEYS = ("decode_steps",)


def _clamped(params: dict[str, Any], max_requests: int | None, max_steps: int | None):
    """``params`` with request/session counts and decode steps capped."""
    caps = dict.fromkeys(_REQUEST_CAP_KEYS, max_requests)
    caps.update(dict.fromkeys(_STEP_CAP_KEYS, max_steps))
    return {
        key: value if caps.get(key) is None or value is None else min(value, caps[key])
        for key, value in params.items()
    }


@dataclass(frozen=True)
class WorkloadRecipe(_Spec):
    """Declarative request-trace description: an arrival *kind* + params.

    ``kind`` selects the generator in :mod:`repro.workloads.generator`:

    ========== =========================================================
    kind       builder
    ========== =========================================================
    poisson    :func:`~repro.workloads.generator.serving_workload`
    diurnal    :func:`~repro.workloads.generator.diurnal_arrivals` trace
    bursty     :func:`~repro.workloads.generator.bursty_arrivals` trace
    skewed     :func:`~repro.workloads.generator.skewed_serving_workload`
    chat       :func:`~repro.workloads.generator.chat_serving_workload`
    ========== =========================================================

    ``params`` must use the builders' keyword names; unknown or
    missing-required keys, and values of a type the builder's
    annotation does not allow, raise at construction. A param left out
    takes its builder's default; the builders check the ranges, also at
    construction: the recipe builds itself once with its counts capped
    to one request and one decode step. The build seed comes from the
    scenario (not the recipe), so one recipe replays under every sweep
    seed.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in _RECIPE_BUILDERS:
            known = ", ".join(sorted(_RECIPE_BUILDERS))
            raise ConfigError(f"unknown workload kind {self.kind!r} (known: {known})")
        required = _RECIPE_BUILDERS[self.kind][0]
        accepted = _recipe_params(self.kind)
        keys = set(self.params)
        unknown = keys - set(accepted)
        if unknown:
            raise ConfigError(
                f"unknown {self.kind!r} workload params: {_listed(unknown)} "
                f"(known: {_listed(accepted)})"
            )
        missing = sorted(set(required) - keys)
        if missing:
            raise ConfigError(
                f"{self.kind!r} workload is missing required params: "
                f"{', '.join(missing)}"
            )
        for name, value in self.params.items():
            if not _conforms(value, accepted[name]):
                raise ConfigError(
                    f"{self.kind!r} workload param {name} must be "
                    f"{_describe(accepted[name])}, got {type(value).__name__} "
                    f"{value!r:.60}"
                )
        # Freeze a JSON-plain copy so to_dict() is stable and callers
        # can't alias internal state through the constructor argument.
        object.__setattr__(self, "params", _plain(dict(self.params)))
        # The builders own the ranges: a one-request dry run applies
        # them now rather than inside a sweep worker.
        try:
            self._build(_clamped(self.params, 1, 1), seed=0, vocab_size=512)
        except ConfigError as exc:
            raise ConfigError(f"{self.kind!r} workload: {exc}") from None

    def capped(
        self, max_requests: int | None = None, max_steps: int | None = None
    ) -> "WorkloadRecipe":
        """A copy with request-count / decode-step params clamped down.

        This is the sweep runner's smoke control: CI caps every cell's
        size without editing the registered scenarios. Caps only ever
        shrink a workload — a cap above the recipe's own value is a
        no-op, so capped replays of an already-small scenario are
        byte-identical to uncapped ones.
        """
        if max_requests is not None and max_requests < 1:
            raise ConfigError(f"max_requests must be >= 1, got {max_requests}")
        if max_steps is not None and max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {max_steps}")
        return WorkloadRecipe(
            kind=self.kind, params=_clamped(self.params, max_requests, max_steps)
        )

    def build(self, seed: int = 0, vocab_size: int = 512) -> "list[ArrivedWorkload]":
        """Materialise the recipe as a serving trace.

        A pure function of ``(recipe, seed, vocab_size)`` — the same
        recipe under the same seed always yields the same trace, which
        is what makes sweep cells resumable and replays byte-identical.
        """
        return self._build(self.params, seed, vocab_size)

    def _build(
        self, params: dict[str, Any], seed: int, vocab_size: int
    ) -> "list[ArrivedWorkload]":
        """The trace this recipe's builders give for ``params``."""
        *arrivals, builder = _RECIPE_BUILDERS[self.kind][1]
        given = set(params)
        params = dict(params)
        for draw in arrivals:
            own = {key: params.pop(key) for key in _keywords(draw) & given}
            params["arrival_times"] = draw(**own, seed=seed)
        return builder(**params, vocab_size=vocab_size, seed=seed)
