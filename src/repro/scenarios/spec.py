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

- validates eagerly — a bad name or range raises
  :class:`~repro.errors.ConfigError` at construction, not at build time
  deep inside a sweep worker. Fields a spec shares with the runtime
  config it describes (:class:`~repro.engine.engine.EngineConfig`,
  :class:`~repro.serving.scheduler.ServingConfig`) are checked by
  building that config, so spec and config cannot disagree;
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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EngineConfig, InferenceEngine
    from repro.fleet.fleet import FleetRouter
    from repro.serving.engine import ServingEngine
    from repro.serving.scheduler import ServingConfig
    from repro.workloads.generator import ArrivedWorkload

__all__ = [
    "EngineSpec",
    "ServingSpec",
    "FleetSpec",
    "WorkloadRecipe",
    "knob_fields",
    "spec_from_knobs",
]


def _check_dict_keys(cls, data: Mapping[str, Any]) -> None:
    """Reject unknown keys so typos fail loudly instead of silently."""
    if not isinstance(data, Mapping):
        raise ConfigError(
            f"{cls.__name__}.from_dict needs a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} keys: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )


def _plain(value):
    """Coerce a spec field value to JSON-representable primitives."""
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _check_name(what: str, name: str, known) -> None:
    if name not in known:
        raise ConfigError(
            f"unknown {what} {name!r} (known: {', '.join(sorted(known))})"
        )


def _shared_fields(spec, config_type) -> dict[str, Any]:
    """The values of ``spec``'s fields that ``config_type`` also declares."""
    shared = {f.name for f in dataclasses.fields(config_type)}
    return {
        f.name: getattr(spec, f.name)
        for f in dataclasses.fields(spec)
        if f.name in shared
    }


def _nested_spec(spec_field: dataclasses.Field):
    """The spec class a composing field (``engine`` / ``serving``) holds."""
    factory = spec_field.default_factory
    return factory if dataclasses.is_dataclass(factory) else None


def knob_fields(spec_type) -> dict[str, dataclasses.Field]:
    """Every knob of ``spec_type`` by name, composed specs flattened in.

    ``knob_fields(FleetSpec)`` is the whole flat keyword namespace of
    :func:`~repro.engine.factory.make_fleet`: the fleet's own fields,
    its serving spec's and that one's engine spec's.
    """
    knobs: dict[str, dataclasses.Field] = {}
    for spec_field in dataclasses.fields(spec_type):
        nested = _nested_spec(spec_field)
        if nested is None:
            knobs[spec_field.name] = spec_field
        else:
            knobs.update(knob_fields(nested))
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
        kwargs = {}
        for spec_field in dataclasses.fields(cls):
            nested = _nested_spec(spec_field)
            if nested is not None:
                kwargs[spec_field.name] = build(nested)
            elif spec_field.name in knobs:
                kwargs[spec_field.name] = knobs[spec_field.name]
        return cls(**kwargs)

    return build(spec_type)


class _Spec:
    """JSON round-trip shared by the three composing specs.

    ``to_dict`` lists a spec's own knobs first and the spec it composes
    (``engine`` / ``serving``) last, recursively; ``from_dict`` is its
    inverse and rejects unknown keys so typos fail loudly.
    """

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        fields = dataclasses.fields(self)
        data = {
            f.name: _plain(getattr(self, f.name))
            for f in fields
            if _nested_spec(f) is None
        }
        for f in fields:
            if _nested_spec(f) is not None:
                data[f.name] = getattr(self, f.name).to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Rebuild a spec from :meth:`to_dict` output (unknown keys rejected)."""
        _check_dict_keys(cls, data)
        data = dict(data)
        for f in dataclasses.fields(cls):
            nested = _nested_spec(f)
            if nested is not None and f.name in data:
                data[f.name] = nested.from_dict(data[f.name])
        return cls(**data)


@dataclass(frozen=True)
class EngineSpec(_Spec):
    """Declarative recipe for one :class:`~repro.engine.engine.InferenceEngine`.

    The engine knobs, declared once: these fields are the keyword
    namespace of :func:`~repro.engine.factory.make_engine` and the
    engine flags of ``cli run|serve``. A spec only admits *preset
    names* (never model/strategy/profile instances), so it is pure data
    — comparable, hashable and JSON-round-trippable. Fields shared with
    :class:`~repro.engine.engine.EngineConfig` (everything from
    ``cache_ratio`` down) carry that config's ranges:
    :meth:`engine_config` builds it at construction.

    Attributes
    ----------
    model:
        Model preset name (``"mixtral"``, ``"qwen2"``, ``"deepseek"``).
    num_layers:
        Optional layer-count override for fast runs.
    strategy:
        Strategy short name (``"hybrimoe"``, ``"ondemand"``, ...).
    cache_ratio:
        Fraction of all routed experts that fit in GPU memory (the
        paper's "GPU expert cache ratio": 25/50/75%).
    hardware:
        Hardware preset name (``"paper"``, ``"disk-slow"``, ``"edge"``, ...).
    seed:
        Root seed for the model weights, profiling workloads and noise.
    num_gpus:
        Simulated GPU devices. The expert cache is one shard per
        device (one :class:`~repro.cache.manager.ExpertCache` each,
        the aggregate ``cache_ratio`` budget split evenly) and the
        pipeline dispatches each expert to its home device; 1 (the
        paper's testbed) is one shard holding everything.
    placement:
        Expert-placement policy routing keys to home devices:
        ``"round_robin"`` (by expert id), ``"layer_striped"`` (by
        layer) or ``"load_aware"`` (sticky least-loaded). Never
        consulted with one GPU.
    cpu_cache_capacity:
        Routed-expert slots of host DRAM (the CPU tier of the memory
        hierarchy). ``None`` (default) keeps the paper's unbounded CPU
        store — bit-identical to the historical two-tier engine,
        test-enforced. An integer caps DRAM residency: experts outside
        both caches are **spilled to disk** and pay a disk read (on the
        clock's shared disk link) before any CPU compute or PCIe
        transfer.
    cpu_cache_policy:
        Eviction policy of the DRAM tier, from the same registry as
        the GPU tier (``"lru"``, ``"lfu"``, ``"mrs"``).
    predictor:
        Cross-layer expert predictor driving confidence-gated deep
        prefetching (``"frequency"`` or ``"transition"``; see
        :mod:`repro.prediction`). ``None`` (default) keeps the
        historical gate-reuse heuristic — bit-identical to the pre-
        predictor engine across every strategy, test-enforced.
    predict_horizon:
        Deepest lookahead distance a confident predictor may extend
        prefetching to (>= ``prefetch_lookahead`` to matter).
    confidence_gate:
        Calibrated-confidence threshold of the
        :class:`~repro.prediction.gate.ConfidenceGate`. Confidence is
        strictly below 1, so ``1.0`` never fires — the equivalence
        oracle the bit-identity tests use.
    """

    model: str = "deepseek"
    num_layers: int | None = None
    strategy: str = "hybrimoe"
    cache_ratio: float = 0.5
    hardware: str = "paper"
    seed: int = 0
    num_gpus: int = 1
    placement: str = "round_robin"
    cpu_cache_capacity: int | None = None
    cpu_cache_policy: str = "lru"
    predictor: str | None = None
    predict_horizon: int = 4
    confidence_gate: float = 0.6

    def __post_init__(self) -> None:
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
        self.engine_config()

    def engine_config(self) -> "EngineConfig":
        """The :class:`~repro.engine.engine.EngineConfig` equivalent.

        Every field the two classes share is copied over (the rest of
        the config keeps its defaults), so a knob added to both is
        threaded with no further edit — and the config's own checks
        are the spec's range validation.
        """
        from repro.engine.engine import EngineConfig

        return EngineConfig(**_shared_fields(self, EngineConfig))

    def build(self) -> "InferenceEngine":
        """Construct the engine this spec describes (via ``make_engine``)."""
        from repro.engine.factory import make_engine

        return make_engine(spec=self)


@dataclass(frozen=True)
class ServingSpec(_Spec):
    """Declarative recipe for a continuous-batching serving engine.

    Composes an :class:`EngineSpec` with the serving-loop knobs — the
    extra keywords of :func:`~repro.engine.factory.make_serving_engine`
    and the ``serving`` / ``resilience`` flags of ``cli serve``. Each
    knob is the :class:`~repro.serving.scheduler.ServingConfig` field
    of the same name, documented there; the defaults keep the
    historical FCFS loop bit-identically.
    """

    engine: EngineSpec = field(default_factory=EngineSpec)
    max_batch_size: int = 8
    prefill_chunk_tokens: int | None = None
    preemption: bool = False
    request_timeout_s: float | None = None
    shed_queue_depth: int | None = None
    shed_resume_depth: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.engine, EngineSpec):
            raise ConfigError(
                f"ServingSpec.engine must be an EngineSpec, got "
                f"{type(self.engine).__name__}"
            )
        self.serving_config()

    def serving_config(self) -> "ServingConfig":
        """The :class:`~repro.serving.scheduler.ServingConfig` equivalent.

        Built from the shared fields, exactly as
        :meth:`EngineSpec.engine_config` — the config's checks are the
        spec's range validation.
        """
        from repro.serving.scheduler import ServingConfig

        return ServingConfig(**_shared_fields(self, ServingConfig))

    def build(self) -> "ServingEngine":
        """Construct the serving engine (via ``make_serving_engine``)."""
        from repro.engine.factory import make_serving_engine

        return make_serving_engine(spec=self)


@dataclass(frozen=True)
class FleetSpec(_Spec):
    """Declarative recipe for an M-replica serving fleet.

    Composes a per-replica :class:`ServingSpec` with the fleet-level
    knobs — the extra keywords of
    :func:`~repro.engine.factory.make_fleet` and the ``fleet`` /
    retry flags of ``cli serve``.

    Attributes
    ----------
    serving:
        The serving engine every replica runs (a homogeneous pool,
        required for the merged fleet report).
    replicas:
        Replica pool size. ``1`` is meaningful to the scenario layer
        and the CLI: it means "serve on the bare single engine" (a
        :class:`~repro.serving.engine.ServingEngine`, reporting a
        ``ServingReport``), not a one-replica fleet — the two are
        bit-identical, but the report types differ.
    router:
        Routing policy: ``"round_robin"``, ``"least_loaded"`` or
        ``"cache_affinity"``.
    max_retries / retry_backoff_s:
        Timeout retry budget per request and the base backoff (retry
        ``n`` waits ``backoff * 2**(n-1)``); retries are re-routed
        like failovers.
    """

    serving: ServingSpec = field(default_factory=ServingSpec)
    replicas: int = 2
    router: str = "round_robin"
    max_retries: int = 0
    retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        from repro.fleet.router import available_routers

        if not isinstance(self.serving, ServingSpec):
            raise ConfigError(
                f"FleetSpec.serving must be a ServingSpec, got "
                f"{type(self.serving).__name__}"
            )
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        _check_name("router", self.router, available_routers())
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s <= 0:
            raise ConfigError(
                f"retry_backoff_s must be positive, got {self.retry_backoff_s}"
            )

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
#: Per-kind parameter contract: (required keys, optional keys). The
#: builder functions own value validation; the recipe owns key hygiene
#: so a typo'd parameter fails at spec construction.
_RECIPE_KINDS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "poisson": (
        frozenset({"num_requests", "arrival_rate"}),
        frozenset({"decode_steps", "priority_mix", "class_deadlines", "datasets"}),
    ),
    "diurnal": (
        frozenset({"num_requests", "base_rate", "peak_rate"}),
        frozenset(
            {"period", "decode_steps", "priority_mix", "class_deadlines", "datasets"}
        ),
    ),
    "bursty": (
        frozenset({"num_requests", "base_rate", "burst_rate"}),
        frozenset(
            {
                "burst_every",
                "burst_duration",
                "decode_steps",
                "priority_mix",
                "class_deadlines",
                "datasets",
            }
        ),
    ),
    "trace": (
        frozenset({"arrival_times"}),
        frozenset({"decode_steps", "datasets"}),
    ),
    "skewed": (
        frozenset({"num_requests", "arrival_rate"}),
        frozenset({"num_profiles", "decode_steps", "prompt_length", "dataset"}),
    ),
    "chat": (
        frozenset({"num_sessions"}),
        frozenset(
            {
                "turns_per_session",
                "session_rate",
                "think_time_s",
                "user_tokens",
                "decode_steps",
                "dataset",
            }
        ),
    ),
}

#: Parameters clamped by :meth:`WorkloadRecipe.capped` — the sweep
#: runner's ``--requests`` / ``--steps`` smoke caps.
_REQUEST_CAP_KEYS = ("num_requests", "num_sessions")
_STEP_CAP_KEYS = ("decode_steps",)


@dataclass(frozen=True)
class WorkloadRecipe:
    """Declarative request-trace description: an arrival *kind* + params.

    ``kind`` selects the generator in :mod:`repro.workloads.generator`:

    ========== =========================================================
    kind       builder
    ========== =========================================================
    poisson    :func:`~repro.workloads.generator.serving_workload`
    diurnal    :func:`~repro.workloads.generator.diurnal_arrivals` trace
    bursty     :func:`~repro.workloads.generator.bursty_arrivals` trace
    trace      explicit ``arrival_times`` (non-monotone traces allowed —
               they surface the ``requests_from_trace`` reorder warning
               in the scenario's cell output instead of being rejected)
    skewed     :func:`~repro.workloads.generator.skewed_serving_workload`
    chat       :func:`~repro.workloads.generator.chat_serving_workload`
    ========== =========================================================

    ``params`` must use each builder's keyword names; unknown or
    missing-required keys raise at construction. The build seed comes
    from the scenario (not the recipe), so one recipe replays under
    every sweep seed.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _RECIPE_KINDS:
            known = ", ".join(sorted(_RECIPE_KINDS))
            raise ConfigError(f"unknown workload kind {self.kind!r} (known: {known})")
        if not isinstance(self.params, Mapping):
            raise ConfigError(
                f"WorkloadRecipe params must be a mapping, got "
                f"{type(self.params).__name__}"
            )
        required, optional = _RECIPE_KINDS[self.kind]
        keys = set(self.params)
        unknown = sorted(keys - required - optional)
        if unknown:
            raise ConfigError(
                f"unknown {self.kind!r} workload params: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(required | optional))})"
            )
        missing = sorted(required - keys)
        if missing:
            raise ConfigError(
                f"{self.kind!r} workload is missing required params: "
                f"{', '.join(missing)}"
            )
        # Freeze a JSON-plain copy so to_dict() is stable and callers
        # can't alias internal state through the constructor argument.
        object.__setattr__(self, "params", _plain(dict(self.params)))

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation; inverse of :meth:`from_dict`."""
        return {"kind": self.kind, "params": _plain(dict(self.params))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadRecipe":
        """Rebuild a recipe from :meth:`to_dict` output."""
        _check_dict_keys(cls, data)
        data = dict(data)
        return cls(kind=data.get("kind", ""), params=data.get("params", {}))

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
        params = dict(self.params)
        if max_requests is not None:
            if max_requests < 1:
                raise ConfigError(f"max_requests must be >= 1, got {max_requests}")
            for key in _REQUEST_CAP_KEYS:
                if params.get(key) is not None:
                    params[key] = min(int(params[key]), max_requests)
        if max_steps is not None:
            if max_steps < 0:
                raise ConfigError(f"max_steps must be >= 0, got {max_steps}")
            for key in _STEP_CAP_KEYS:
                if params.get(key) is not None:
                    params[key] = min(int(params[key]), max_steps)
        return WorkloadRecipe(kind=self.kind, params=params)

    def build(self, seed: int = 0, vocab_size: int = 512) -> "list[ArrivedWorkload]":
        """Materialise the recipe as a serving trace.

        A pure function of ``(recipe, seed, vocab_size)`` — the same
        recipe under the same seed always yields the same trace, which
        is what makes sweep cells resumable and replays byte-identical.
        """
        from repro.workloads import generator as wg

        p = dict(self.params)
        decode_steps = int(p.pop("decode_steps", 16))
        if self.kind == "poisson":
            return wg.serving_workload(
                num_requests=int(p.pop("num_requests")),
                arrival_rate=float(p.pop("arrival_rate")),
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                seed=seed,
                **self._mix_kwargs(p),
            )
        if self.kind == "diurnal":
            num_requests = int(p.pop("num_requests"))
            times = wg.diurnal_arrivals(
                num_requests,
                base_rate=float(p.pop("base_rate")),
                peak_rate=float(p.pop("peak_rate")),
                period=float(p.pop("period", 60.0)),
                seed=seed,
            )
            return wg.serving_workload(
                arrival_times=times,
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                seed=seed,
                **self._mix_kwargs(p),
            )
        if self.kind == "bursty":
            num_requests = int(p.pop("num_requests"))
            times = wg.bursty_arrivals(
                num_requests,
                base_rate=float(p.pop("base_rate")),
                burst_rate=float(p.pop("burst_rate")),
                burst_every=float(p.pop("burst_every", 30.0)),
                burst_duration=float(p.pop("burst_duration", 5.0)),
                seed=seed,
            )
            return wg.serving_workload(
                arrival_times=times,
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                seed=seed,
                **self._mix_kwargs(p),
            )
        if self.kind == "trace":
            return self._explicit_trace(decode_steps, seed, vocab_size, p)
        if self.kind == "skewed":
            return wg.skewed_serving_workload(
                num_requests=int(p.pop("num_requests")),
                arrival_rate=float(p.pop("arrival_rate")),
                num_profiles=int(p.pop("num_profiles", 2)),
                decode_steps=decode_steps,
                vocab_size=vocab_size,
                dataset=p.pop("dataset", "chatgpt-prompts"),
                prompt_length=p.pop("prompt_length", None),
                seed=seed,
            )
        # kind == "chat" (the registry rejected everything else)
        return wg.chat_serving_workload(
            num_sessions=int(p.pop("num_sessions")),
            turns_per_session=int(p.pop("turns_per_session", 3)),
            session_rate=float(p.pop("session_rate", 0.5)),
            think_time_s=float(p.pop("think_time_s", 2.0)),
            user_tokens=int(p.pop("user_tokens", 16)),
            decode_steps=decode_steps,
            vocab_size=vocab_size,
            dataset=p.pop("dataset", "chatgpt-prompts"),
            seed=seed,
        )

    @staticmethod
    def _mix_kwargs(params: dict[str, Any]) -> dict[str, Any]:
        """The optional serving_workload kwargs shared by arrival kinds."""
        kwargs: dict[str, Any] = {}
        if params.get("priority_mix") is not None:
            kwargs["priority_mix"] = {
                str(k): float(v) for k, v in params["priority_mix"].items()
            }
        if params.get("class_deadlines") is not None:
            kwargs["class_deadlines"] = {
                str(k): float(v) for k, v in params["class_deadlines"].items()
            }
        if params.get("datasets") is not None:
            kwargs["datasets"] = tuple(params["datasets"])
        return kwargs

    def _explicit_trace(
        self, decode_steps: int, seed: int, vocab_size: int, params: dict[str, Any]
    ) -> "list[ArrivedWorkload]":
        """Entries from explicit arrival instants, preserving trace order.

        Unlike :func:`~repro.workloads.generator.serving_workload`
        (which *rejects* non-monotone traces up front), this path keeps
        the entries in trace order and lets
        :func:`~repro.serving.engine.requests_from_trace` emit its
        reorder ``UserWarning`` at serve time — the scenario layer
        records that warning in the cell output rather than swallowing
        or pre-empting it.
        """
        from repro.workloads.datasets import DATASET_PROFILES, sample_prompt
        from repro.workloads.generator import ArrivedWorkload, WorkloadSpec

        times = [float(t) for t in params.pop("arrival_times")]
        if not times:
            raise ConfigError("trace workload needs at least one arrival time")
        datasets = tuple(params.pop("datasets", ("mtbench", "vicuna", "chatgpt-prompts")))
        for dataset in datasets:
            if dataset not in DATASET_PROFILES:
                raise ConfigError(f"unknown dataset {dataset!r}")
        entries = []
        for index, at_time in enumerate(times):
            dataset = datasets[index % len(datasets)]
            tokens = sample_prompt(dataset, vocab_size, seed=seed, index=index)
            entries.append(
                ArrivedWorkload(
                    arrival_time=at_time,
                    workload=WorkloadSpec(
                        kind="decode" if decode_steps > 0 else "prefill",
                        dataset=dataset,
                        prompt_tokens=tokens,
                        decode_steps=decode_steps,
                    ),
                )
            )
        return entries
