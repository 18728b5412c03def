"""Convenience constructors for strategies and engines.

The experiment harness, examples and tests all build engines the same
way; these helpers keep that construction in one place.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.baselines.adapmoe import AdapMoEStrategy
from repro.baselines.ktransformers import KTransformersStrategy
from repro.baselines.llamacpp import LlamaCppStrategy
from repro.baselines.ondemand import OnDemandStrategy
from repro.core.strategy import HybriMoEStrategy
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.strategy_base import Strategy
from repro.errors import ConfigError
from repro.hardware.cost_model import HardwareProfile
from repro.hardware.platform_presets import get_hardware_preset
from repro.models.model import ReferenceMoEModel
from repro.models.presets import preset_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scenarios.spec import EngineSpec, FleetSpec, ServingSpec

__all__ = [
    "available_strategies",
    "make_strategy",
    "make_engine",
    "make_serving_engine",
    "make_fleet",
]

_STRATEGIES = {
    "hybrimoe": HybriMoEStrategy,
    "ktransformers": KTransformersStrategy,
    "adapmoe": AdapMoEStrategy,
    "llamacpp": LlamaCppStrategy,
    "ondemand": OnDemandStrategy,
}


def available_strategies() -> list[str]:
    """Names accepted by :func:`make_strategy` / :func:`make_engine`."""
    return sorted(_STRATEGIES)


def make_strategy(name: str, **kwargs) -> Strategy:
    """Instantiate a strategy by short name.

    Keyword arguments are forwarded (e.g. the HybriMoE ablation toggles
    ``scheduling=False``).
    """
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(available_strategies())
        raise ConfigError(f"unknown strategy {name!r} (known: {known})") from None
    return cls(**kwargs)


def _resolve_spec(who: str, spec_type, spec, knobs: dict, model, strategy, hardware):
    """The spec a factory call describes, plus its live objects.

    ``knobs`` are the call's loose keywords. ``model`` / ``strategy``
    / ``hardware`` given by *name* are knobs like any other; given as
    instances they are live objects replacing what the spec would
    build, returned by name (``None`` where the spec decides).

    A ``spec`` *is* the configuration: mixing it with knob keywords or
    live model/strategy/hardware objects would create two sources of
    truth (and silently ignore one), so any of them alongside ``spec``
    is an error naming the offenders.
    Schedules and ``strategy_kwargs`` carry nothing a spec could, and
    may accompany one.
    """
    live = {"model": model, "strategy": strategy, "hardware": hardware}
    for name, value in live.items():
        if isinstance(value, str):
            knobs[name], live[name] = value, None
    if spec is None:
        # Imported lazily: repro.scenarios builds on this module.
        from repro.scenarios.spec import spec_from_knobs

        return spec_from_knobs(spec_type, knobs, who), live
    if not isinstance(spec, spec_type):
        raise ConfigError(
            f"{who} spec must be a {spec_type.__name__}, got {type(spec).__name__}"
        )
    clash = sorted([*knobs, *(n for n, v in live.items() if v is not None)])
    if clash:
        raise ConfigError(
            f"{who}(spec=...) replaces the keyword configuration; "
            f"fold these arguments into the spec: {', '.join(clash)}"
        )
    return spec, live


def _config_part(spec, config_type):
    """The plain ``config_type`` part of ``spec``, which inherits it.

    A runtime gets only the knobs it runs with: a spec's preset names
    (or a serving spec's ``engine``) need not describe the system
    actually built, which live ``model`` / ``hardware`` objects replace.
    """
    return config_type(
        **{f.name: getattr(spec, f.name) for f in dataclasses.fields(config_type)}
    )


def _build_engine(
    spec: "EngineSpec",
    strategy_kwargs: dict | None,
    model=None,
    strategy=None,
    hardware=None,
) -> InferenceEngine:
    """Build the engine ``spec`` describes around any live objects given."""
    if model is None:
        model = preset_model(spec.model, spec.num_layers, spec.seed)
    if strategy is None:
        strategy = make_strategy(spec.strategy, **(strategy_kwargs or {}))
    elif strategy_kwargs:
        raise ConfigError("strategy_kwargs only apply when strategy is a name")
    if hardware is None:
        hardware = get_hardware_preset(spec.hardware)
    return InferenceEngine(model, strategy, hardware, _config_part(spec, EngineConfig))


def make_engine(
    model: str | ReferenceMoEModel | None = None,
    strategy: str | Strategy | None = None,
    *,
    hardware: str | HardwareProfile | None = None,
    strategy_kwargs: dict | None = None,
    spec: "EngineSpec | None" = None,
    **knobs,
) -> InferenceEngine:
    """One-call engine construction from preset names.

    Parameters
    ----------
    **knobs:
        Any field of :class:`~repro.scenarios.spec.EngineSpec`, by
        name (``cache_ratio=0.25``, ``num_gpus=2``, ...) — the spec
        and the :class:`~repro.engine.engine.EngineConfig` it inherits
        document each knob, its default and its range. The
        keywords are folded into a spec, so an unknown or out-of-range
        one raises :class:`~repro.errors.ConfigError` before anything
        is built.
    spec:
        A ready :class:`~repro.scenarios.spec.EngineSpec` instead of
        knob keywords (mutually exclusive with them);
        ``make_engine(spec=s)`` is bit-identical to spelling ``s``'s
        fields out.
    model / strategy / hardware:
        A preset name (a knob like any other) or a live object: a
        ready-made functional model, strategy instance or
        :class:`~repro.hardware.cost_model.HardwareProfile`. A model
        by name comes from :func:`~repro.models.presets.preset_model`;
        engines on equal models, by name or live, share one weight set
        and warmup profile while any lives.
    strategy_kwargs:
        Extra constructor arguments for a strategy built here from a
        name: HybriMoE's Table III toggles, its planner ``scheduler``
        and prefetch ``lookahead``.
    """
    from repro.scenarios.spec import EngineSpec

    spec, live = _resolve_spec(
        "make_engine", EngineSpec, spec, knobs, model, strategy, hardware
    )
    return _build_engine(spec, strategy_kwargs, **live)


def make_serving_engine(
    model: str | ReferenceMoEModel | None = None,
    strategy: str | Strategy | None = None,
    *,
    hardware: str | HardwareProfile | None = None,
    faults=None,
    strategy_kwargs: dict | None = None,
    spec: "ServingSpec | None" = None,
    **knobs,
):
    """One-call construction of a continuous-batching serving engine.

    Builds a fresh engine exactly as :func:`make_engine` does (cold
    clock, warm cache) and wraps it in a
    :class:`~repro.serving.engine.ServingEngine`. ``**knobs`` are the
    fields of :class:`~repro.scenarios.spec.ServingSpec` and of the
    :class:`~repro.scenarios.spec.EngineSpec` it composes (documented
    on those classes); ``spec`` takes a ready ``ServingSpec`` instead.

    ``faults`` injects a :class:`~repro.hardware.faults.FaultSchedule`
    of hardware windows on replica 0. The remaining parameters are
    those of :func:`make_engine`.
    """
    # Imported lazily: repro.serving builds on repro.engine, so a
    # top-level import here would be circular.
    from repro.scenarios.spec import ServingSpec
    from repro.serving.engine import ServingEngine
    from repro.serving.scheduler import ServingConfig

    spec, live = _resolve_spec(
        "make_serving_engine", ServingSpec, spec, knobs, model, strategy, hardware
    )
    engine = _build_engine(spec.engine, strategy_kwargs, **live)
    return ServingEngine(engine, _config_part(spec, ServingConfig), faults=faults)


def make_fleet(
    model: str | ReferenceMoEModel | None = None,
    strategy: str | Strategy | None = None,
    *,
    hardware: str | HardwareProfile | None = None,
    faults=None,
    autoscale=None,
    strategy_kwargs: dict | None = None,
    spec: "FleetSpec | None" = None,
    **knobs,
):
    """One-call construction of a multi-replica serving fleet.

    Builds a :class:`~repro.fleet.fleet.FleetRouter` whose replica
    engines are produced lazily, each exactly as :func:`make_engine`
    would build it — every replica runs on one weight set and gets
    its own strategy instance of the same hardware, seed and cache
    configuration. ``**knobs`` are the fields of
    :class:`~repro.scenarios.spec.FleetSpec` (its own are the
    :class:`~repro.fleet.fleet.FleetConfig` knobs) and of the serving
    and engine specs it composes; ``spec`` takes a ready ``FleetSpec``.

    ``faults`` injects a :class:`~repro.hardware.faults.FaultSchedule`
    (replica crashes, slow windows and link / disk / straggler
    degradation) and ``autoscale`` enables threshold autoscaling of the
    active pool — live objects, which may accompany a ``spec``. The
    remaining parameters are those of :func:`make_serving_engine`.

    A fleet of one replica is bit-identical to the bare serving engine
    under every routing policy — the fleet equivalence tests pin this.
    """
    # Imported lazily: repro.fleet builds on repro.engine, so a
    # top-level import here would be circular.
    from repro.fleet.fleet import FleetConfig, FleetRouter
    from repro.scenarios.spec import FleetSpec
    from repro.serving.scheduler import ServingConfig

    spec, live = _resolve_spec(
        "make_fleet", FleetSpec, spec, knobs, model, strategy, hardware
    )
    if live["strategy"] is not None and spec.replicas > 1:
        raise ConfigError(
            "pass the strategy by name for a multi-replica fleet: a shared "
            "strategy instance would leak scheduler state across replicas"
        )
    def engine_factory() -> InferenceEngine:
        return _build_engine(spec.engine, strategy_kwargs, **live)

    return FleetRouter(
        engine_factory,
        _config_part(spec, FleetConfig),
        _config_part(spec.serving, ServingConfig),
        faults=faults,
        autoscale=autoscale,
    )
