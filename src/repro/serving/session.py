"""Stepwise serving session: the serve loop as a resumable object.

:class:`ServingSession` owns the state of one continuous-batching
serving run — queue, fused decode batch, chunked prefill, preempted
set, per-request samplers — and advances it **one scheduler action at a
time**. :meth:`ServingSession.step` performs exactly one decision of
the :class:`~repro.serving.scheduler.ContinuousBatchingScheduler`
(admit / prefill / decode / preempt / resume), so callers choose the
drive granularity:

- :meth:`~repro.serving.engine.ServingEngine.serve` loops ``step()``
  to completion — byte-for-byte the historical batch loop;
- the fleet layer (:mod:`repro.fleet`) interleaves many replica
  sessions on their own clocks, :meth:`submit`\\ s requests as the
  front-end router assigns them mid-run, and :meth:`abort`\\ s a
  session when a fault schedule crashes its replica, re-routing the
  surviving in-flight requests elsewhere.

The session is the bit-identity boundary: driving ``step()`` in a
tighter outer loop performs the same pipeline calls in the same order
as the historical ``serve()`` body, so a 1-replica fleet reproduces a
bare :class:`~repro.serving.engine.ServingEngine` exactly (the fleet
equivalence tests enforce this across all five strategies).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.engine.engine import InferenceEngine
from repro.engine.metrics import GenerationResult, ServingReport, StepMetrics
from repro.engine.pipeline import SequenceStep
from repro.errors import ConfigError
from repro.hardware.faults import DegradationEvent, FaultSchedule
from repro.rng import derive_rng
from repro.serving.request import Request, RequestStatus
from repro.serving.scheduler import ContinuousBatchingScheduler, ServingConfig

__all__ = ["ServingSession"]


def _remove_by_identity(items: list[Request], target: Request) -> None:
    """Drop ``target`` from ``items`` by object identity.

    ``list.remove`` falls back to ``__eq__`` (field-wise on the
    dataclass, touching numpy arrays) for non-matching entries; the
    loop always holds the exact object, so identity is both safer and
    cheaper.
    """
    for index, item in enumerate(items):
        if item is target:
            del items[index]
            return
    raise ValueError(f"request {target.request_id} not in list")


class ServingSession:
    """One in-progress continuous-batching run, advanced action by action.

    Parameters
    ----------
    engine:
        The engine whose pipeline, cache and clock this run drives.
    config:
        Serving knobs (batch ceiling, chunked prefill, preemption,
        timeouts, overload shedding).
    requests:
        Initial request batch (more can arrive via :meth:`submit`).
    solo:
        Whether decode sampling should use the engine's solo stream for
        requests without an explicit ``sample_seed`` (the derivation
        ``InferenceEngine.generate`` uses). ``None`` (default) infers
        it from the initial batch size — the historical ``serve()``
        rule. The fleet passes the *fleet-wide* request count's verdict
        so a 1-replica fleet matches a bare engine bit-for-bit.
    origin:
        Clock value that trace time ``0`` maps to. ``None`` (default)
        anchors at the engine's current frontier — the bare-engine
        rule. The fleet passes one shared origin to every replica
        session so all sessions (and the merged report) live on a
        single fleet-wide time base even when replica clocks drifted
        apart over earlier serves.
    faults:
        Fault schedule whose hardware windows on ``replica_id`` (link
        degradation, disk stalls, GPU stragglers) this session applies
        to its engine at step boundaries; crash and slow faults are the
        fleet's to act on. ``None`` (default) applies nothing —
        bit-identical to an unfaulted run, which is what the no-fire
        equivalence tests pin. The fleet passes every replica its whole
        schedule.
    replica_id:
        Fleet replica index this session serves (0 on a bare engine);
        selects which faults apply and labels degradation-log events.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: ServingConfig | None = None,
        requests: Iterable[Request] = (),
        solo: bool | None = None,
        origin: float | None = None,
        faults: FaultSchedule | None = None,
        replica_id: int = 0,
    ) -> None:
        self.engine = engine
        self.config = config or ServingConfig()
        self.faults = faults
        self.replica_id = replica_id
        self.scheduler = ContinuousBatchingScheduler(self.config)
        # Arrival times are trace-relative; on a warm engine (a second
        # serve, or a prior generate) they are shifted onto the clock's
        # frontier at session start, so queueing delays stay
        # meaningful. The shift is applied to each request once, at
        # admission — still-queued requests are never mutated, so a
        # serve retried after a mid-run failure cannot double-shift
        # them. A fresh engine has origin 0 (the bit-equivalence path).
        # The fleet passes an explicit ``origin`` — the *fleet-wide*
        # wall clock — so replica sessions whose engines drifted apart
        # over earlier serves still report on one shared time base.
        self.origin = (
            engine.runtime.clock.compute_frontier if origin is None else origin
        )
        cache = engine.runtime.cache
        assert cache is not None  # always bound by InferenceEngine.__init__
        stats_start = cache.stats  # one snapshot: aggregated across shards
        #: Cache counters at session start; the report and per-request
        #: totals are deltas against it, so a warm engine (prior
        #: serve/generate) does not pollute a later report.
        self._stats_baseline = (stats_start.hits, stats_start.misses)
        self.queue: list[Request] = []
        self.running: list[Request] = []
        self.preempted: list[Request] = []
        self.prefilling: Request | None = None
        self.finished: list[Request] = []
        #: Requests aborted for exceeding ``request_timeout_s``.
        self.timed_out: list[Request] = []
        #: Requests refused admission by overload shedding.
        self.shed: list[Request] = []
        #: Timeouts not yet claimed by the fleet's retry logic (cleared
        #: by :meth:`claim_fresh_timeouts`; ignored on a bare engine).
        self._fresh_timeouts: list[Request] = []
        #: Hardware-degradation log: one event per change of the
        #: active-fault set observed at a step boundary.
        self.degradation_log: list[DegradationEvent] = []
        #: Active faults at the last step boundary (change detector for
        #: the log — a disk stall's numeric state shrinks every step,
        #: which is re-costing churn, not a loggable transition).
        self._active_faults: tuple = ()
        self.samplers: dict[int, np.random.Generator] = {}
        self.preemptions = 0
        #: High-water mark of batch occupancy (decoding + mid-prefill),
        #: the observable the fleet property tests pin against
        #: ``max_batch_size``.
        self.peak_occupancy = 0
        #: Set by :meth:`abort` — a dead session takes no more steps.
        self.dead = False
        self._submitted: list[Request] = []
        self._ids: set[int] = set()
        initial = list(requests)
        self.solo = (len(initial) == 1) if solo is None else solo
        if initial:
            self.submit(initial)

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit(self, requests: Iterable[Request]) -> None:
        """Queue more requests (validated like a ``serve()`` batch).

        Requests are single-use and owned by the session once
        submitted. Ids must be unique across the whole session, not
        just within one submission — the fleet relies on this to keep
        failover re-submissions honest.
        """
        batch = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        ids = [r.request_id for r in batch]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate request ids in batch: {sorted(ids)}")
        collisions = self._ids & set(ids)
        if collisions:
            raise ConfigError(
                f"request ids already submitted to this session: "
                f"{sorted(collisions)}"
            )
        for request in batch:
            if request.status is not RequestStatus.QUEUED:
                raise ConfigError(
                    f"request {request.request_id} was already served "
                    f"(status {request.status.value})"
                )
        self._ids.update(ids)
        self._submitted.extend(batch)
        self.queue.extend(batch)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current trace-relative time (clock frontier minus origin)."""
        return self.engine.runtime.clock.compute_frontier - self.origin

    @property
    def occupancy(self) -> int:
        """Batch occupancy: decoding requests plus a mid-prefill one."""
        return len(self.running) + (1 if self.prefilling is not None else 0)

    def has_work(self) -> bool:
        """Whether any submitted request is still unfinished here."""
        return bool(
            self.queue
            or self.running
            or self.preempted
            or self.prefilling is not None
        )

    def is_idle(self) -> bool:
        """Nothing running and no *arrived* queued request.

        In this state the next action is an idle jump (admitting a
        future arrival with a ``not_before`` floor) or nothing at all.
        The fleet holds an idle session instead of stepping it whenever
        an unrouted arrival could still win the idle jump's tie-break,
        preserving bare-engine admission order.
        """
        if self.running or self.preempted or self.prefilling is not None:
            return False
        now = self.now
        return not any(r.arrival_time <= now for r in self.queue)

    def next_queued_arrival(self) -> float | None:
        """Earliest trace-relative arrival among queued requests."""
        return min((r.relative_arrival for r in self.queue), default=None)

    def in_flight(self) -> list[Request]:
        """Submitted requests not yet terminal, in submission order."""
        return [r for r in self._submitted if not r.is_terminal]

    def claim_fresh_timeouts(self) -> list[Request]:
        """Hand unclaimed timeout victims to the caller (fleet retries).

        Each timed-out request is returned exactly once across all
        calls; a bare-engine serve never calls this and simply reports
        the timeouts as terminal records.
        """
        fresh = self._fresh_timeouts
        self._fresh_timeouts = []
        return fresh

    def reclaim(self, request: Request) -> None:
        """Un-record a timed-out request the fleet will retry elsewhere.

        Drops the victim from this session's terminal set and frees its
        id fleet-wide, so the retry clone's eventual terminal record is
        the *only* record of the request — the exactly-one-terminal-
        status invariant holds across retries just as it does across
        failovers.
        """
        _remove_by_identity(self.timed_out, request)
        _remove_by_identity(self._submitted, request)
        self._ids.discard(request.request_id)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Perform one scheduler action; False when there is none left.

        Degradation state, request timeouts and overload shedding are
        all observed here, at the step boundary, *before* the scheduler
        decision — the same observation discipline as replica crashes,
        so the fast and reference planner paths cost a degraded link
        identically and a deadline passing mid-step takes effect at the
        next boundary.
        """
        if self.dead:
            return False
        # The policy reasons in trace-relative time; admission floors
        # are translated back to absolute clock time.
        now = self.now
        self._apply_degradation(now)
        self._sweep_timeouts(now)
        self._sweep_shedding(now)
        if not self.has_work():
            return False
        engine = self.engine
        action = self.scheduler.next_action(
            now,
            self.queue,
            self.running,
            prefilling=self.prefilling,
            preempted=self.preempted,
        )
        # Unreachable with a consistent queue/batch state: has_work()
        # guaranteed at least one request in some holding structure, and
        # every branch of next_action() yields an action for a non-empty
        # state (an empty batch with queued work takes the idle jump).
        # Kept as a defensive guard so a policy bug degrades to loop
        # termination instead of an infinite loop.
        if action is None:  # pragma: no cover - defensive
            return False
        if action.kind == "admit":
            request = action.request
            assert request is not None
            _remove_by_identity(self.queue, request)
            request.arrival_shift = self.origin
            request.arrival_time += self.origin
            # Chunk boundaries exist to bound the decode stalls of
            # *SLO-class* decoders (any class above the default): while
            # one is decoding, every admitted prompt — whatever its own
            # class — prefills in slices. Default-class decoders eat
            # whole-prompt stalls, so a default-only run never pays
            # slice overhead.
            protect = any(r.priority_rank > 0 for r in self.running)
            complete = self._prefill(
                request,
                action.not_before + self.origin,
                chunked=protect,
            )
            if not complete:
                self.prefilling = request
            elif request.decode_steps == 0:
                self._finish(request, request.first_token_time)
                self.finished.append(request)
            else:
                request.status = RequestStatus.DECODING
                self.running.append(request)
        elif action.kind == "prefill":
            request = action.request
            assert request is self.prefilling and not self.running
            # No decoders left to protect: the remaining prompt runs as
            # one dedicated step.
            self._prefill_remainder(request)
            self.prefilling = None
            if request.decode_steps == 0:
                self._finish(request, request.first_token_time)
                self.finished.append(request)
            else:
                request.status = RequestStatus.DECODING
                self.running.append(request)
        elif action.kind == "preempt":
            victim = action.request
            assert victim is not None
            _remove_by_identity(self.running, victim)
            victim.status = RequestStatus.PREEMPTED
            victim.num_preemptions += 1
            self.preempted.append(victim)
            self.preemptions += 1
        elif action.kind == "resume":
            request = action.request
            assert request is not None
            _remove_by_identity(self.preempted, request)
            request.status = RequestStatus.DECODING
            self.running.append(request)
        else:
            done, chunk_complete = self._decode_step()
            for request in done:
                _remove_by_identity(self.running, request)
                self.finished.append(request)
            if chunk_complete:
                request = self.prefilling
                self.prefilling = None
                if request.decode_steps == 0:
                    self._finish(request, request.first_token_time)
                    self.finished.append(request)
                else:
                    request.status = RequestStatus.DECODING
                    self.running.append(request)
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        return True

    # ------------------------------------------------------------------
    # step-boundary observations (degradation, timeouts, shedding)
    # ------------------------------------------------------------------
    def _apply_degradation(self, now: float) -> None:
        """Apply the fault schedule's state for this step boundary.

        ``set_degradation`` is a no-op returning False while the state
        is unchanged (in particular, always outside fault windows), so
        an unfired schedule costs one state comparison per step and
        changes no durations. The log appends only when the *set* of
        active faults changes — a disk stall's remaining time shrinks
        every boundary, which is re-costing churn, not a transition
        worth logging.
        """
        schedule = self.faults
        if schedule is None:
            return
        state = schedule.state_at(now, self.replica_id)
        self.engine.set_degradation(state)
        active = schedule.degrading(self.replica_id, now)
        if active != self._active_faults:
            self._active_faults = active
            self.degradation_log.append(
                DegradationEvent(time=now, state=state, replica=self.replica_id)
            )

    def _abort_request(
        self, request: Request, now: float, status: RequestStatus
    ) -> None:
        """Terminate a request without completion (timeout or shed).

        ``finish_time`` is the abort-*observation* instant — the first
        step boundary at/after the deadline, the same discipline as
        crash observation — in absolute clock seconds like every other
        record time. Partial decode state and the sampler are released;
        cache residency earned on the request's behalf stays (warmed
        experts are not un-warmed).
        """
        if request.status is RequestStatus.QUEUED:
            # Never admitted: apply the admission-time arrival shift now
            # so the record's times are absolute like admitted ones'.
            request.arrival_shift = self.origin
            request.arrival_time += self.origin
        request.status = status
        request.finish_time = now + self.origin
        if request.request_id in self.engine.states:
            self.engine.states.pop(request.request_id)
        self.samplers.pop(request.request_id, None)

    def _sweep_timeouts(self, now: float) -> None:
        """Abort every non-terminal request past its timeout budget.

        The budget is end-to-end from the request's (trace-relative)
        arrival, so queueing time counts — a request shed of its slot
        by overload is exactly the kind the timeout exists to cut
        loose. Finished requests are immune: completion at the
        deadline instant beats aborting work already delivered.
        """
        timeout = self.config.request_timeout_s
        if timeout is None:
            return

        def expired(request: Request) -> bool:
            return now >= request.relative_arrival + timeout

        victims = [r for r in self.queue if expired(r)]
        victims += [r for r in self.running if expired(r)]
        victims += [r for r in self.preempted if expired(r)]
        if self.prefilling is not None and expired(self.prefilling):
            victims.append(self.prefilling)
        for request in victims:
            if request is self.prefilling:
                self.prefilling = None
            elif request.status is RequestStatus.QUEUED:
                _remove_by_identity(self.queue, request)
            elif request.status is RequestStatus.PREEMPTED:
                _remove_by_identity(self.preempted, request)
            else:
                _remove_by_identity(self.running, request)
            self._abort_request(request, now, RequestStatus.TIMED_OUT)
            self.timed_out.append(request)
            self._fresh_timeouts.append(request)

    def _sweep_shedding(self, now: float) -> None:
        """Refuse queued arrivals beyond the overload watermark.

        Watermark hysteresis: the sweep only fires once the *arrived*
        backlog reaches the high watermark, then sheds down to the low
        one in a single batch — so admission runs undisturbed until
        the backlog climbs all the way back, instead of oscillating
        around one threshold. Victims are picked lowest class first
        and newest arrival within a class, so interactive requests
        shed last and the oldest waiters keep their place.
        """
        high = self.config.shed_queue_depth
        if high is None:
            return
        arrived = [r for r in self.queue if r.relative_arrival <= now]
        if len(arrived) < high:
            return
        low = self.config.shed_resume_depth
        if low is None:
            low = high // 2
        while len(arrived) > low:
            victim = min(
                arrived,
                key=lambda r: (
                    r.priority_rank,
                    -r.relative_arrival,
                    -r.request_id,
                ),
            )
            _remove_by_identity(arrived, victim)
            _remove_by_identity(self.queue, victim)
            self._abort_request(victim, now, RequestStatus.SHED)
            self.shed.append(victim)

    # ------------------------------------------------------------------
    # teardown & reporting
    # ------------------------------------------------------------------
    def release_states(self) -> None:
        """Drop decode states of unfinished requests (engine stays usable).

        A mid-run failure (strategy bug, interrupt, replica crash) must
        not leave orphaned decode states behind.
        """
        for request in self._submitted:
            if (
                not request.is_terminal
                and request.request_id in self.engine.states
            ):
                self.engine.states.pop(request.request_id)

    def abort(self) -> list[Request]:
        """Kill the session (replica crash) and return the in-flight set.

        Finished requests keep their records (they completed before the
        fault); everything else — queued, mid-prefill, decoding or
        preempted — is returned for the caller to re-route. Their
        decode states are released so the engine object stays valid
        even though the fleet will never step this session again.
        """
        survivors = self.in_flight()
        self.release_states()
        self.queue.clear()
        self.running.clear()
        self.preempted.clear()
        self.prefilling = None
        self.dead = True
        return survivors

    def report(self) -> ServingReport:
        """Freeze the terminal requests into a serving report."""
        engine = self.engine
        cache = engine.runtime.cache
        assert cache is not None
        final_stats = cache.stats
        hits_before, misses_before = self._stats_baseline
        terminal = self.finished + self.timed_out + self.shed
        return ServingReport(
            model_name=engine.model.config.name,
            strategy_name=engine.strategy.name,
            cache_ratio=engine.config.cache_ratio,
            max_batch_size=self.config.max_batch_size,
            requests=sorted(
                (r.to_record() for r in terminal),
                key=lambda r: r.request_id,
            ),
            total_hits=final_stats.hits - hits_before,
            total_misses=final_stats.misses - misses_before,
            preemptions=self.preemptions,
            degradations=list(self.degradation_log),
        )

    # ------------------------------------------------------------------
    # the per-action mechanics (the historical serve() helpers)
    # ------------------------------------------------------------------
    def _sampler(self, request: Request) -> np.random.Generator:
        """Per-request decode-sampling stream.

        A solo request with ``sample_seed=None`` gets byte-for-byte the
        stream ``InferenceEngine.generate`` derives, preserving
        single-request bit-equivalence. In a multi-request run an unset
        seed falls back to the request id — otherwise every default
        request would share one stream and identical prompts would
        decode identical token trajectories, faking cache affinity.
        """
        seed = self.engine.config.seed
        if request.sample_seed is None:
            if self.solo:
                return derive_rng(seed, "engine", "decode-sampling")
            # Distinct namespace from explicit seeds, so an explicit
            # sample_seed equal to another request's id cannot collide
            # with that request's auto-derived stream.
            return derive_rng(
                seed, "engine", "decode-sampling", "auto", request.request_id
            )
        return derive_rng(seed, "engine", "decode-sampling", request.sample_seed)

    def _prefill(
        self,
        request: Request,
        not_before: float,
        chunked: bool = False,
    ) -> bool:
        """Admit one request: create its state and start its prefill.

        Returns True when the prefill completed; False when the request
        entered a chunked prefill and owes more chunks. ``chunked`` is
        whether a strictly-higher-priority request is currently
        decoding: chunk boundaries exist to bound *its* stalls, so with
        nothing to protect (idle platform, or only peers/lower classes
        decoding) the whole prompt runs in one step instead of paying
        per-slice step overhead for nobody's benefit.
        """
        engine = self.engine
        chunk = self.config.prefill_chunk_tokens
        # Leave QUEUED before any fallible work: a failed admission must
        # not leave the request replayable (its arrival was shifted).
        request.status = RequestStatus.PREFILL
        state = engine.states.create(request.request_id)
        if chunked and chunk is not None and request.prompt_len > chunk:
            # First slice of a chunked prefill; the remaining slices
            # ride the fused decode steps (one hybrid step per slice).
            result = engine.pipeline.run_batch(
                [SequenceStep(request.prompt_tokens[:chunk], state)],
                "prefill",
                not_before=max(not_before, request.arrival_time),
            )
            request.prefill_pos = chunk
            request.prefill_chunks.append(result.metrics)
            request.prefill_start = result.metrics.start
            return False
        result = engine.pipeline.run_batch(
            [SequenceStep(request.prompt_tokens, state)],
            "prefill",
            not_before=max(not_before, request.arrival_time),
        )
        metrics = result.metrics
        request.prefill_start = metrics.start
        self._seal_prefill(request, metrics, result.hidden[0][-1])
        return True

    def _prefill_remainder(self, request: Request) -> None:
        """Finish a chunked prefill with the batch drained.

        With no request left decoding there is no stall to bound, so
        the whole remaining prompt runs as one final slice instead of
        paying per-chunk step overhead for nobody's benefit.
        """
        engine = self.engine
        assert request.prefill_pos > 0
        tokens = request.prompt_tokens[request.prefill_pos :]
        result = engine.pipeline.run_batch(
            [SequenceStep(tokens, engine.states.get(request.request_id))],
            "prefill",
        )
        request.prefill_pos = request.prompt_len
        request.prefill_chunks.append(result.metrics)
        merged = self._merged_prefill_metrics(request)
        self._seal_prefill(request, merged, result.hidden[0][-1])

    def _merged_prefill_metrics(self, request: Request) -> StepMetrics:
        """Collapse a chunked prefill into one logical prefill metric.

        The span runs from the first chunk's start to the last chunk's
        end — the price the request actually paid. Hits/misses are
        summed (hybrid slices share their fused step's counters with
        the decode batch, the same fleet-level convention as fused
        decode metrics) and utilisation is the duration-weighted mean
        of the chunks' own windows.
        """
        chunks = request.prefill_chunks
        durations = [c.duration for c in chunks]
        total = sum(durations)
        keys = chunks[0].utilization.keys()
        if total > 0:
            utilization = {
                k: sum(c.utilization.get(k, 0.0) * d for c, d in zip(chunks, durations))
                / total
                for k in keys
            }
        else:  # pragma: no cover - defensive
            # Unreachable with the analytic cost model: every prefill
            # chunk carries >= 1 token, and the per-token expert costs
            # are strictly positive, so durations cannot sum to zero.
            # Kept so a future zero-cost model degrades to "copy the
            # first chunk's utilisation" instead of dividing by zero.
            utilization = dict(chunks[0].utilization)
        return StepMetrics(
            stage="prefill",
            n_tokens=request.prompt_len,
            start=chunks[0].start,
            end=chunks[-1].end,
            hits=sum(c.hits for c in chunks),
            misses=sum(c.misses for c in chunks),
            utilization=utilization,
            batch_size=1,
        )

    def _seal_prefill(
        self,
        request: Request,
        metrics: StepMetrics,
        last_hidden: np.ndarray,
    ) -> None:
        """Record prefill completion: first token, result, sampler."""
        engine = self.engine
        request.first_token_time = metrics.end
        request.last_token_time = metrics.end
        request.last_hidden = last_hidden
        request.result = GenerationResult(
            model_name=engine.model.config.name,
            strategy_name=engine.strategy.name,
            cache_ratio=engine.config.cache_ratio,
            prefill=metrics,
        )
        self.samplers[request.request_id] = self._sampler(request)

    def _decode_step(self) -> tuple[list[Request], bool]:
        """Advance every running request one token in one fused step.

        With a chunked prefill in progress, its next slice rides the
        same step as one extra sequence (a *hybrid* step): attention is
        charged once for the combined token count and the slice's
        experts are planned together with the decode batch's union, so
        chunking adds no dedicated steps while anyone is decoding.

        Returns the requests that finished and whether the hybrid
        slice completed the prefill.
        """
        engine = self.engine
        model = engine.model
        prefilling = self.prefilling
        batch: list[SequenceStep] = []
        for request in self.running:
            assert request.last_hidden is not None
            token = model.sample_next_token(
                request.last_hidden, self.samplers[request.request_id]
            )
            request.output_tokens.append(token)
            batch.append(
                SequenceStep(
                    np.array([token]), engine.states.get(request.request_id)
                )
            )
        chunk_end = 0
        if prefilling is not None:
            chunk = self.config.prefill_chunk_tokens
            assert chunk is not None and prefilling.prefill_pos > 0
            chunk_end = min(prefilling.prefill_pos + chunk, prefilling.prompt_len)
            batch.append(
                SequenceStep(
                    prefilling.prompt_tokens[prefilling.prefill_pos : chunk_end],
                    engine.states.get(prefilling.request_id),
                )
            )
        result = engine.pipeline.run_batch(batch, "decode")
        metrics = result.metrics
        chunk_complete = False
        if prefilling is not None:
            prefilling.prefill_pos = chunk_end
            prefilling.prefill_chunks.append(metrics)
            if chunk_end == prefilling.prompt_len:
                self._seal_prefill(
                    prefilling,
                    self._merged_prefill_metrics(prefilling),
                    result.hidden[-1][-1],
                )
                chunk_complete = True
        done: list[Request] = []
        for index, request in enumerate(self.running):
            request.last_hidden = result.hidden[index][-1]
            assert request.result is not None
            request.result.decode_steps.append(metrics)
            # TBT is the gap between consecutive token *emissions*, so
            # stalls from interleaved prefills of other requests (and
            # time spent preempted) count against the waiting
            # request's tokens. With contiguous decode steps (any
            # single-request run) the gap equals the step duration
            # exactly, preserving generate-equivalence.
            assert request.last_token_time is not None
            request.tbt_values.append(metrics.end - request.last_token_time)
            request.last_token_time = metrics.end
            if request.tokens_remaining == 0:
                self._finish(request, metrics.end)
                done.append(request)
        return done, chunk_complete

    def _finish(self, request: Request, finish_time: float | None) -> None:
        """Seal a completed request and release its decode state.

        ``request.result`` mirrors what ``generate`` would report on
        the engine, which in a multi-request run means *fleet-level*
        numbers: ``total_hits/total_misses`` snapshot the shared cache
        counters at finish time, and ``decode_steps`` hold the fused
        batch steps (so ``result.tbt_values`` are step durations, not
        this request's emission gaps). Per-request truth lives on the
        :class:`~repro.engine.metrics.RequestRecord` (``tbt_values``,
        percentiles) and fleet comparisons in the
        :class:`~repro.engine.metrics.ServingReport`.
        """
        assert finish_time is not None
        request.status = RequestStatus.FINISHED
        request.finish_time = finish_time
        cache = self.engine.runtime.cache
        if request.result is not None and cache is not None:
            hits_before, misses_before = self._stats_baseline
            stats_now = cache.stats
            request.result.total_hits = stats_now.hits - hits_before
            request.result.total_misses = stats_now.misses - misses_before
        self.engine.states.pop(request.request_id)
