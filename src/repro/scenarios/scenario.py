"""The scenario spec: workload x hardware x system configuration x seeds.

A :class:`ScenarioSpec` is the unit the sweep runner fans out: one
named, frozen, JSON-round-trippable answer to "what exactly are we
serving, on what system, under which seeds?". It composes the typed
config specs (:class:`~repro.scenarios.spec.FleetSpec` wrapping
:class:`~repro.scenarios.spec.ServingSpec` wrapping
:class:`~repro.scenarios.spec.EngineSpec`) with a declarative
:class:`~repro.scenarios.spec.WorkloadRecipe`.

Running a scenario is nothing more than the factory call it denotes:
``spec.run(seed)`` builds the serving engine (or fleet) from the spec
and serves the recipe's trace — so a scenario run is **bit-identical**
to writing the equivalent ``make_serving_engine(...)`` /
``make_fleet(...)`` invocation by hand, which the sweep equivalence
tests enforce.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.scenarios.spec import FleetSpec, WorkloadRecipe, _Spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.metrics import ServingReport
    from repro.fleet.fleet import FleetReport
    from repro.workloads.generator import ArrivedWorkload

__all__ = ["ScenarioSpec"]

#: Scenario names become sweep-cell file names; keep them path-safe.
_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")


@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """One declarative serving scenario.

    Attributes
    ----------
    name:
        Registry key and sweep-cell label (lowercase, ``[a-z0-9_-]``).
    workload:
        The request trace to serve (a :class:`WorkloadRecipe`).
    fleet:
        The system to serve it on. ``fleet.replicas == 1`` (the
        :class:`~repro.fleet.fleet.FleetConfig` default) means the bare
        single serving engine (reports a ``ServingReport``); above 1 a
        router fronts the replica pool (``FleetReport``).
    description:
        One line for ``cli scenarios list``.
    seeds:
        Root seeds the sweep expands into one cell each. A seed
        overrides both the engine seed and the workload build seed, so
        a (scenario, seed) pair fully determines a run.
    """

    name: str
    workload: WorkloadRecipe
    fleet: FleetSpec = field(default_factory=FleetSpec)
    description: str = ""
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not _NAME_RE.fullmatch(self.name):
            raise ConfigError(
                f"scenario name {self.name!r} must match {_NAME_RE.pattern} "
                f"(it becomes sweep-cell file names)"
            )
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ConfigError("ScenarioSpec.seeds must not be empty")
        if len(set(seeds)) != len(seeds):
            raise ConfigError(f"ScenarioSpec.seeds contains duplicates: {seeds}")
        object.__setattr__(self, "seeds", seeds)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def strategy(self) -> str:
        """The engine strategy this scenario runs."""
        return self.fleet.engine.strategy

    @property
    def hardware(self) -> str:
        """The hardware preset this scenario runs on."""
        return self.fleet.engine.hardware

    @property
    def kind(self) -> str:
        """``"serving"`` (1 replica) or ``"fleet"`` (replica pool)."""
        return "serving" if self.fleet.replicas == 1 else "fleet"

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_overrides(
        self,
        strategy: str | None = None,
        hardware: str | None = None,
        seed: int | None = None,
        max_requests: int | None = None,
        max_steps: int | None = None,
    ) -> "ScenarioSpec":
        """A copy with sweep-axis overrides applied.

        ``strategy`` / ``hardware`` replace the engine's; ``seed``
        pins ``seeds`` to that single seed (and the engine seed with
        it); ``max_requests`` / ``max_steps`` cap the workload size
        (smoke runs). Validation reruns on the result, so an override
        naming an unknown strategy or preset raises immediately.
        """
        engine = self.fleet.engine
        engine_changes: dict[str, Any] = {}
        if strategy is not None:
            engine_changes["strategy"] = strategy
        if hardware is not None:
            engine_changes["hardware"] = hardware
        if seed is not None:
            engine_changes["seed"] = int(seed)
        changes: dict[str, Any] = {}
        if engine_changes:
            serving = dataclasses.replace(
                self.fleet.serving,
                engine=dataclasses.replace(engine, **engine_changes),
            )
            changes["fleet"] = dataclasses.replace(self.fleet, serving=serving)
        if seed is not None:
            changes["seeds"] = (int(seed),)
        if max_requests is not None or max_steps is not None:
            changes["workload"] = self.workload.capped(
                max_requests=max_requests, max_steps=max_steps
            )
        if not changes:
            return self
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def build_trace(self, seed: int | None = None) -> "list[ArrivedWorkload]":
        """Materialise the workload trace under one seed.

        Prompts draw from the spec-built model's token universe:
        factory-built preset models always use the reference vocab
        size, which is also the recipe builder's default.
        """
        seed = self.seeds[0] if seed is None else int(seed)
        return self.workload.build(seed=seed)

    def build_system(self, seed: int | None = None):
        """Build the serving engine (1 replica) or fleet this spec names."""
        spec = self if seed is None else self.with_overrides(seed=seed)
        if spec.fleet.replicas == 1:
            return spec.fleet.serving.build()
        return spec.fleet.build()

    def run(self, seed: int | None = None) -> "ServingReport | FleetReport":
        """Serve the scenario's trace on its system; returns the report.

        Exactly equivalent to building the system and trace by hand
        and calling ``serve_trace`` — no scenario-layer processing
        touches the report, which is what keeps a sweep cell
        bit-identical to the direct factory invocation.
        """
        seed = self.seeds[0] if seed is None else int(seed)
        system = self.build_system(seed=seed)
        return system.serve_trace(self.build_trace(seed=seed))
