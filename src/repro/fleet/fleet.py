"""The fleet front end: M replica serving engines behind one router.

:class:`FleetRouter` is the millions-of-users layer: it owns a pool of
identical replica :class:`~repro.engine.engine.InferenceEngine`\\ s
(each with its own expert cache, hybrid scheduler and simulated
clock), routes every arriving request to one replica via a pluggable
:class:`~repro.fleet.router.RoutingPolicy`, injects faults from a
:class:`~repro.hardware.faults.FaultSchedule` (crashes fail work over
to the survivors; slow windows black replicas out of routing; hardware
windows degrade a replica and steer work away from it),
and threshold-autoscales the active pool against the arrival trace.

## Time and determinism

Every replica session advances on its own engine clock, but the fleet
interleaves their steps strictly in global-time order (earliest
session frontier first, replica id breaking ties), so causality holds
across the fleet: a request is routed only after every replica has
advanced to its arrival instant, and the router observes each
replica's load and cache residency at its last step boundary at or
after the arrival. The loop uses no randomness of its own — all
tie-breaks are by replica id — so a fleet run is a pure function of
(replica config, request set, policy, fault schedule, autoscale
config).

A single-replica fleet performs exactly the step sequence of a bare
:class:`~repro.serving.engine.ServingEngine` and is **bit-identical**
to it — the idle-hold rule below is what preserves this: an idle
session is only allowed to jump ahead to a queued future arrival when
no unrouted fleet arrival could still win that admission (strictly
earlier queued arrival than every pending fleet event).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.engine.engine import InferenceEngine
from repro.engine.metrics import ServingReport
from repro.errors import ConfigError, SimulationError
from repro.fleet.autoscale import AutoscaleConfig, AutoscaleEvent
from repro.fleet.router import make_router
from repro.hardware.faults import Fault, FaultSchedule
from repro.routing.statistics import predicted_routing_profile
from repro.serving.engine import requests_from_trace
from repro.serving.request import Request, RequestStatus
from repro.serving.scheduler import ServingConfig
from repro.serving.session import ServingSession
from repro.workloads.generator import ArrivedWorkload

__all__ = ["Replica", "RoutingDecision", "FleetReport", "FleetConfig", "FleetRouter"]


class Replica:
    """One fleet member: a lazily-built engine plus its serving session.

    ``active`` tracks autoscaling (inactive replicas take no new
    requests but drain what they hold); a crashed replica's session is
    ``dead`` and the replica never serves again. ``faults`` is the
    fleet's whole schedule; each session applies this replica's part.
    """

    def __init__(
        self,
        replica_id: int,
        factory: Callable[[], InferenceEngine],
        faults: FaultSchedule | None = None,
    ):
        self.replica_id = replica_id
        self._factory = factory
        self.faults = faults
        self._engine: InferenceEngine | None = None
        self.session: ServingSession | None = None
        self.active = False
        #: High-water batch occupancy across every session this replica
        #: ran (sessions reset per serve; the peak is a replica fact).
        self.peak_occupancy = 0

    @property
    def built(self) -> bool:
        """Whether the replica's engine has been constructed yet."""
        return self._engine is not None

    @property
    def engine(self) -> InferenceEngine:
        """The replica's engine, built on first use."""
        if self._engine is None:
            self._engine = self._factory()
        return self._engine

    @property
    def alive(self) -> bool:
        """Built, session started, and not crashed."""
        return self.session is not None and not self.session.dead

    @property
    def load(self) -> int:
        """In-flight (submitted, unfinished) requests on this replica."""
        return len(self.session.in_flight()) if self.session is not None else 0

    def start_session(self, config: ServingConfig, solo: bool, origin: float) -> None:
        """Open a fresh serving session (one per fleet serve).

        ``origin`` is the fleet-wide wall clock — shared by every
        replica session of a serve, so trace time means the same thing
        on each replica even when their engine clocks drifted apart
        over earlier serves.
        """
        self.session = ServingSession(
            self.engine,
            config,
            solo=solo,
            origin=origin,
            faults=self.faults,
            replica_id=self.replica_id,
        )


@dataclass(frozen=True)
class RoutingDecision:
    """One routing choice, with the load snapshot the policy saw."""

    request_id: int
    replica: int
    time: float
    #: ``(replica_id, in_flight_load)`` for every routable candidate at
    #: decision time, in replica-id order.
    loads: tuple[tuple[int, int], ...]


@dataclass
class FleetReport:
    """Outcome of one fleet serve: per-replica and merged views.

    ``merged`` pools every finished request exactly once (crashed
    work re-finishes on a surviving replica under a fresh lifecycle),
    so its goodput/percentile properties are directly comparable with
    a single-engine :class:`~repro.engine.metrics.ServingReport`.
    """

    per_replica: list[tuple[int, ServingReport]]
    merged: ServingReport
    decisions: list[RoutingDecision] = field(default_factory=list)
    autoscale_events: list[AutoscaleEvent] = field(default_factory=list)
    #: Peak batch occupancy per replica id (replicas that served).
    peak_occupancy: dict[int, int] = field(default_factory=dict)

    @property
    def num_failovers(self) -> int:
        """Total crash re-routings across all finished requests."""
        return self.merged.num_failovers

    def assignment_counts(self) -> dict[int, int]:
        """Requests routed per replica id (failover re-routes included)."""
        counts: dict[int, int] = {}
        for decision in self.decisions:
            counts[decision.replica] = counts.get(decision.replica, 0) + 1
        return counts

    def summary(self) -> dict[str, float | int | str]:
        """Flat fleet-level record for tabulation and benchmarks."""
        record = self.merged.summary()
        record["replicas"] = len(self.per_replica)
        record["autoscale_events"] = len(self.autoscale_events)
        return record


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the fleet front end (the replica pool and its router).

    :class:`~repro.scenarios.spec.FleetSpec` inherits these fields and
    their checks, adding only the serving spec every replica runs.

    Attributes
    ----------
    replicas:
        Replica pool size M (the autoscaling ceiling). To the scenario
        layer and the CLI, ``1`` means the bare single engine (a
        :class:`~repro.serving.engine.ServingEngine` and its
        ``ServingReport``): bit-identical to a one-replica fleet, but
        the report types differ.
    router:
        Routing policy name, one of
        :func:`~repro.fleet.router.available_routers`.
    max_retries:
        Retry budget per request for timeout re-submission. A request
        timing out with retries left is re-enqueued (and re-routed like
        a failover) after an exponential backoff; one that exhausted
        the budget keeps its ``TIMED_OUT`` record. ``0`` (default)
        disables retries.
    retry_backoff_s:
        Base backoff delay: retry ``n`` (1-based) re-arrives
        ``retry_backoff_s * 2**(n-1)`` seconds after its timeout was
        observed.
    """

    replicas: int = 1
    router: str = "round_robin"
    max_retries: int = 0
    retry_backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        make_router(self.router)  # an unknown name raises, listing the known
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 < self.retry_backoff_s < math.inf:  # NaN fails, too
            raise ConfigError(
                f"retry_backoff_s must be positive and finite, got "
                f"{self.retry_backoff_s}"
            )


class FleetRouter:
    """Front-end router over a pool of replica serving engines.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building one replica engine. Called once
        per replica, lazily (standby replicas are only built when
        autoscaling activates them). Factories must build *identical*
        engines — the fleet reports a single merged
        :class:`~repro.engine.metrics.ServingReport`, which requires a
        homogeneous pool.
    config:
        The fleet knobs: pool size, routing policy and retry budget.
    serving:
        Per-replica serving knobs (each session gets the same config).
    faults:
        Scheduled faults; ``None`` injects nothing. Crashes fail a
        replica's work over, slow windows black it out of routing, and
        each replica session applies its own hardware windows (link
        degradation, disk stalls, GPU stragglers) at step boundaries;
        the router also steers new work away from currently-degraded
        replicas while healthy alternatives exist.
    autoscale:
        Threshold autoscaling config; ``None`` keeps all M replicas
        active for the whole run.
    """

    def __init__(
        self,
        engine_factory: Callable[[], InferenceEngine],
        config: FleetConfig,
        serving: ServingConfig,
        faults: FaultSchedule | None = None,
        autoscale: AutoscaleConfig | None = None,
    ) -> None:
        if autoscale is not None and autoscale.max_replicas > config.replicas:
            raise ConfigError(
                f"autoscale.max_replicas ({autoscale.max_replicas}) exceeds the "
                f"replica pool ({config.replicas})"
            )
        self.config = config
        self.serving = serving
        self.policy = make_router(config.router)
        self.faults = faults or FaultSchedule()
        for fault in self.faults:
            if fault.replica >= config.replicas:
                raise ConfigError(
                    f"{fault.kind} fault targets replica {fault.replica} but "
                    f"the pool has {config.replicas} replicas"
                )
        self.autoscale = autoscale
        self.replicas = [
            Replica(i, engine_factory, faults) for i in range(config.replicas)
        ]
        self._profiles: dict[bytes, np.ndarray] = {}
        # Mutable per-serve state, (re)initialised in serve().
        self._pending_crashes: list[Fault] = []
        self._heap: list[tuple[float, int, Request]] = []
        self._seq = 0
        self._decisions: list[RoutingDecision] = []
        self._events: list[AutoscaleEvent] = []
        self._last_scale_time: float | None = None

    # ------------------------------------------------------------------
    def routing_profile(self, request: Request) -> np.ndarray:
        """Predicted ``(layer, expert)`` routing loads of a request.

        Memoized per distinct prompt: profiling runs one stateless
        model forward (no engine cache or clock is touched), and hot
        skewed workloads repeat a handful of prompts, so the fleet
        profiles each once.
        """
        key = request.prompt_tokens.tobytes()
        profile = self._profiles.get(key)
        if profile is None:
            model = self.replicas[0].engine.model
            profile = predicted_routing_profile(model, request.prompt_tokens)
            self._profiles[key] = profile
        return profile

    # ------------------------------------------------------------------
    def serve(self, requests: Iterable[Request]) -> FleetReport:
        """Route and serve all requests to completion across the fleet."""
        pending = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        if not pending:
            raise ConfigError("serve() needs at least one request")
        ids = [r.request_id for r in pending]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate request ids in batch: {sorted(ids)}")
        for request in pending:
            if request.status is not RequestStatus.QUEUED:
                raise ConfigError(
                    f"request {request.request_id} was already served "
                    f"(status {request.status.value})"
                )

        solo = len(pending) == 1
        self._solo = solo
        initial_active = (
            self.autoscale.min_replicas if self.autoscale else self.config.replicas
        )
        for replica in self.replicas:
            replica.active = False
            replica.session = None
        # One shared origin for every replica session: the furthest
        # engine frontier across the pool. On a fresh fleet this is 0
        # (the bare-engine equivalence path); on a reused fleet (e.g. a
        # warmup serve followed by a measured one) replica clocks have
        # drifted apart, and anchoring each session at its own frontier
        # would put per-replica records on different time bases and
        # make the merged report's makespan meaningless.
        self._origin = max(
            (r.engine.runtime.clock.compute_frontier for r in self.replicas if r.built),
            default=0.0,
        )
        for replica in self.replicas[:initial_active]:
            replica.start_session(self.serving, solo, self._origin)
            replica.active = True
        self.policy.reset()
        self._pending_crashes = list(self.faults.crashes())
        self._heap = []
        self._seq = 0
        self._decisions = []
        self._events = []
        self._last_scale_time = None
        for request in pending:
            self._push(request)

        while True:
            if self._heap:
                t = self._heap[0][0]
                if self._advance(t):
                    continue  # a crash fired; failovers may precede t
                _, _, request = heapq.heappop(self._heap)
                self._autoscale_step(t)
                self._route(request, t)
            elif self._drain_one():
                continue
            else:
                break

        served = [r for r in self.replicas if r.session is not None]
        for replica in served:
            replica.session.release_states()
            replica.peak_occupancy = max(
                replica.peak_occupancy, replica.session.peak_occupancy
            )
        per_replica = [(r.replica_id, r.session.report()) for r in served]
        return FleetReport(
            per_replica=per_replica,
            merged=ServingReport.merged([report for _, report in per_replica]),
            decisions=self._decisions,
            autoscale_events=self._events,
            peak_occupancy={r.replica_id: r.peak_occupancy for r in served},
        )

    def serve_trace(self, entries: Iterable[ArrivedWorkload]) -> FleetReport:
        """Convenience: build requests from a serving trace and serve."""
        return self.serve(requests_from_trace(entries))

    # ------------------------------------------------------------------
    # event loop internals
    # ------------------------------------------------------------------
    def _push(self, request: Request) -> None:
        """Queue an arrival; the sequence number makes heap order total."""
        heapq.heappush(self._heap, (request.arrival_time, self._seq, request))
        self._seq += 1

    def _live(self) -> list[Replica]:
        """Replicas with a running (non-crashed) session, id order."""
        return [r for r in self.replicas if r.alive]

    def _may_step(self, replica: Replica, horizon: float) -> bool:
        """Whether stepping ``replica`` now preserves fleet causality.

        A busy session always may; an **idle** one (nothing in flight,
        no arrived queued request) would idle-jump to its earliest
        queued future arrival, which is only sound when that arrival
        strictly precedes every unrouted fleet arrival — otherwise an
        equal-or-earlier unsubmitted request could win the admission
        tie-break, diverging from the all-requests-up-front engine.
        """
        session = replica.session
        if not session.is_idle():
            return True
        next_queued = session.next_queued_arrival()
        return next_queued is not None and next_queued < horizon

    def _advance(self, t: float) -> bool:
        """Step every session to its first boundary at or past time ``t``.

        Sessions are stepped one scheduler action at a time in global
        time order (smallest session frontier first, replica id on
        ties). Due crash faults fire between steps, and timeout
        retries are collected after every step; returns True as soon
        as either produces heap arrivals so the caller re-examines the
        heap — failover and retry re-arrivals may precede ``t``.
        """
        while True:
            if self._fire_due_crashes(t):
                return True
            steppable = [
                r
                for r in self._live()
                if r.session.has_work()
                and r.session.now < t
                and self._may_step(r, t)
            ]
            if not steppable:
                return False
            replica = min(
                steppable, key=lambda r: (r.session.now, r.replica_id)
            )
            stepped = replica.session.step()
            if self._collect_retries(replica):
                return True
            if not stepped:
                # A timeout sweep just drained the session's last work:
                # no action ran, but other replicas may still owe steps
                # before t — keep advancing (the session drops out of
                # the steppable set next iteration).
                continue

    def _drain_one(self) -> bool:
        """One drain move once no arrivals remain; False when done.

        Drains in global time order like :meth:`_advance`, with no
        horizon: idle sessions may always jump to their queued work. A
        crash firing mid-drain, or a timeout retry, pushes arrivals
        and returns to the routing loop.
        """
        if self._fire_due_crashes(None):
            return True
        steppable = [r for r in self._live() if r.session.has_work()]
        if not steppable:
            return False
        replica = min(steppable, key=lambda r: (r.session.now, r.replica_id))
        stepped = replica.session.step()
        self._collect_retries(replica)
        # Even a False step (timeout sweep drained the last work) made
        # progress: the session left the steppable set, so the drain
        # loop re-evaluates rather than ending while others hold work.
        return stepped or bool(self._heap) or any(
            r.session.has_work() for r in self._live()
        )

    def _collect_retries(self, replica: Replica) -> bool:
        """Re-enqueue the replica's fresh timeouts that have retries left.

        A victim within its retry budget is *reclaimed* — its timeout
        record is dropped and its id freed — and a fresh clone is
        pushed onto the arrival heap with exponential backoff, to be
        re-routed like any arrival (degradation steering and blackout
        rules apply, so the retry naturally lands elsewhere when the
        timing-out replica is the degraded one). A victim out of budget
        keeps its ``TIMED_OUT`` record. Returns True when any clone
        was pushed.
        """
        session = replica.session
        pushed = False
        for request in session.claim_fresh_timeouts():
            if request.num_retries >= self.config.max_retries:
                continue
            session.reclaim(request)
            assert request.finish_time is not None
            backoff = self.config.retry_backoff_s * (2.0 ** request.num_retries)
            arrival = (request.finish_time - self._origin) + backoff
            self._push(request.clone_for_retry(arrival))
            pushed = True
        return pushed

    def _fire_due_crashes(self, horizon: float | None) -> bool:
        """Fire scheduled crashes that have become observable.

        A crash at ``T`` fires once its replica's session reaches a
        step boundary at or past ``T`` — the earliest instant the
        fleet can observe the death (a crash interrupting a fused step
        is noticed when the step would have completed). A replica that
        cannot advance to ``T`` (idle-held or out of work) dies in
        place at ``T`` exactly. With a finite ``horizon`` (the next
        arrival's instant) only crashes due by then fire; during drain
        (``None``) a crash fires only when its session actually
        reaches it, so a far-future fault on a finished replica never
        fires — matching real fleets, where a run that ended cannot
        observe later faults.
        """
        for fault in list(self._pending_crashes):
            replica = self.replicas[fault.replica]
            if not replica.alive:
                # Never started, already crashed, or standby: nothing
                # to kill. Keep standby faults pending — the replica
                # may yet be activated by autoscaling.
                if replica.session is not None:
                    self._pending_crashes.remove(fault)
                continue
            if horizon is not None and fault.at_time > horizon:
                continue
            session = replica.session
            if session.now >= fault.at_time:
                observed = session.now
            elif session.has_work() and self._may_step(
                replica, horizon if horizon is not None else float("inf")
            ):
                continue  # still advancing toward the fault instant
            elif horizon is None:
                continue  # drained before the fault: it never fires
            else:
                observed = fault.at_time
            self._pending_crashes.remove(fault)
            self._crash(replica, observed)
            return True
        return False

    def _crash(self, replica: Replica, observed: float) -> None:
        """Kill a replica and re-enqueue its in-flight requests."""
        survivors = replica.session.abort()
        replica.active = False
        if not self._live() and (survivors or self._heap):
            raise SimulationError(
                "every fleet replica has crashed with requests still in flight"
            )
        for request in survivors:
            clone = request.clone_for_failover(
                max(observed, request.relative_arrival)
            )
            self._push(clone)

    # ------------------------------------------------------------------
    def _routable(self, t: float) -> list[Replica]:
        """Replicas eligible for new work at routing instant ``t``.

        Alive and active, minus replicas inside a slow-fault window —
        unless the blackout would leave nothing routable, in which case
        slow replicas are readmitted (degraded capacity beats dropping
        the request; crashes are the only faults that shed work).
        Replicas inside a *hardware* fault window are steered around
        the same way: excluded while a clean alternative exists,
        readmitted otherwise.
        """
        live = self._live()
        if not live:
            raise SimulationError("no live replica available to route a request")
        candidates = [r for r in live if r.active]
        if not candidates:
            # Every active replica crashed while drained standbys
            # survive: re-promote the survivors rather than dropping
            # the request on the floor.
            for replica in live:
                replica.active = True
            candidates = live
        # Slow blackouts first, then hardware degradation: each stage is
        # undone when it would leave nothing routable.
        for excluded in (self.faults.blacked_out, self.faults.degraded):
            kept = [r for r in candidates if not excluded(r.replica_id, t)]
            candidates = kept or candidates
        return candidates

    def _route(self, request: Request, t: float) -> None:
        """Pick a replica for one arrival and hand the request over."""
        candidates = self._routable(t)
        loads = tuple((r.replica_id, r.load) for r in candidates)
        replica = self.policy.choose(request, candidates, self)
        replica.session.submit([request])
        self._decisions.append(
            RoutingDecision(
                request_id=request.request_id,
                replica=replica.replica_id,
                time=t,
                loads=loads,
            )
        )

    def _autoscale_step(self, t: float) -> None:
        """Evaluate threshold autoscaling at a routing point."""
        cfg = self.autoscale
        if cfg is None:
            return
        if (
            self._last_scale_time is not None
            and t - self._last_scale_time < cfg.cooldown
        ):
            return
        active = [r for r in self._live() if r.active]
        if not active:
            return
        load = sum(r.load for r in active) / len(active)
        if load >= cfg.high_watermark and len(active) < cfg.max_replicas:
            standby = next(
                (
                    r
                    for r in self.replicas
                    if not r.active and (r.session is None or r.alive)
                ),
                None,
            )
            if standby is None:
                return
            if standby.session is None:
                standby.start_session(self.serving, self._solo, self._origin)
            standby.active = True
            self._events.append(
                AutoscaleEvent(
                    time=t,
                    action="scale_up",
                    replica=standby.replica_id,
                    load=load,
                )
            )
            self._last_scale_time = t
        elif load <= cfg.low_watermark and len(active) > cfg.min_replicas:
            victim = active[-1]  # highest id drains first
            victim.active = False
            self._events.append(
                AutoscaleEvent(
                    time=t,
                    action="scale_down",
                    replica=victim.replica_id,
                    load=load,
                )
            )
            self._last_scale_time = t
