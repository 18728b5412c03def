"""The multi-request serving loop: continuous batching over one engine.

:class:`ServingEngine` drives an :class:`~repro.engine.engine.InferenceEngine`'s
batch-capable :class:`~repro.engine.pipeline.StepPipeline` for many
concurrent requests against **one** shared expert cache, hybrid
scheduler and CPU/GPU/PCIe clock. Each iteration runs one of the
actions decided by the
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`:

- **admit** the best queued request (priority class first, FCFS within
  a class), running its prefill as a dedicated step — or, with chunked
  prefill on and an SLO-class request decoding, its first bounded
  slice;
- **prefill** the remainder of an in-progress chunked prefill once the
  decode batch has drained (no stall left to bound — one step);
- **decode** every running request one token in a single fused step —
  carrying the next bounded slice of an in-progress chunked prefill as
  one extra sequence (a *hybrid* step) — so per-layer routing is the
  union of the batch's activated experts: the realistic multi-request
  contention the cache and prefetcher face in production serving;
- **preempt** / **resume** the lowest-priority decoder under overload
  (its :class:`~repro.models.model.DecodeState` stays registered and
  expert-cache contents untouched, so resumption needs no recompute).

The loop body itself lives in
:class:`~repro.serving.session.ServingSession`, a stepwise object the
fleet layer (:mod:`repro.fleet`) also drives — interleaving many
replica sessions, submitting requests mid-run, and aborting crashed
replicas. ``serve()`` is the batch driver: one session, stepped to
completion.

Numerical contract: with the default configuration (single priority
class, chunking off, preemption off) serving reproduces the historical
FCFS loop **bit-identically** — and a single request reproduces
``InferenceEngine.generate`` — because the fused pipeline degenerates
to the historical step sequence and the decode sampler derives from
the same stream. The serving equivalence tests enforce both.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from repro.engine.engine import InferenceEngine
from repro.engine.metrics import ServingReport
from repro.errors import ConfigError
from repro.hardware.faults import FaultSchedule
from repro.serving.request import Request
from repro.serving.scheduler import ServingConfig
from repro.serving.session import ServingSession
from repro.workloads.generator import ArrivedWorkload

__all__ = ["ServingEngine", "requests_from_trace"]


def requests_from_trace(entries: Iterable[ArrivedWorkload]) -> list[Request]:
    """Materialise serving-trace entries as requests (ids = trace order).

    Every :class:`~repro.workloads.generator.ArrivedWorkload` already
    holds a non-negative, finite instant. A non-monotone trace (an
    entry arriving before its predecessor) is accepted with a
    ``UserWarning`` — the serving loop orders admission by arrival
    time, so the trace is effectively sorted, but out-of-order traces
    usually signal a bug in trace construction.
    """
    entries = list(entries)
    arrivals = [float(e.arrival_time) for e in entries]
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        warnings.warn(
            "serving trace arrival times are not non-decreasing; the serving "
            "loop admits by arrival time, so entries will be reordered",
            stacklevel=2,
        )
    return [
        Request.from_workload(index, entry) for index, entry in enumerate(entries)
    ]


class ServingEngine:
    """Continuous-batching serving loop over one inference engine.

    Parameters
    ----------
    engine:
        The engine whose pipeline, cache and clock are shared by all
        requests. A fresh engine gives cold-start reports; serving on a
        warm engine (a prior serve or generate) is supported — arrival
        times shift onto the warm clock and cache stats are reported as
        deltas — but residency carries over, by design.
    config:
        Serving knobs (batch ceiling, chunked prefill, preemption,
        timeouts, overload shedding).
    faults:
        Optional schedule of hardware faults on replica 0 (a bare engine
        is its own replica 0). Crash and slow faults, and faults on any
        other replica, need a fleet and are rejected. ``None`` (default)
        injects nothing and is bit-identical to an unfired schedule.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        config: ServingConfig | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        for fault in faults or ():
            if not fault.degrades:
                raise ConfigError(
                    f"{fault.kind} faults act on fleet replicas; they need a "
                    f"fleet (--replicas > 1)"
                )
            if fault.replica != 0:
                raise ConfigError(
                    f"faults on replica {fault.replica} need a fleet "
                    f"(--replicas > 1); a bare serving engine is replica 0"
                )
        self.engine = engine
        self.config = config or ServingConfig()
        self.faults = faults

    # ------------------------------------------------------------------
    def serve(self, requests: Iterable[Request]) -> ServingReport:
        """Serve all requests to completion; returns the serving report.

        Requests are admitted by ``(priority class, arrival_time,
        request_id)`` — with a single class, plain FCFS. The loop is
        fully deterministic under fixed seeds: identical request sets
        produce identical reports.

        Requests are single-use and owned by the loop once submitted:
        on a warm engine each admitted request's ``arrival_time`` is
        shifted in place onto the clock frontier at serve start, so
        records report effective arrivals on the shared clock, not the
        original trace offsets.
        """
        pending = list(requests)
        if not pending:
            raise ConfigError("serve() needs at least one request")
        session = ServingSession(
            self.engine,
            self.config,
            pending,
            faults=self.faults,
        )
        try:
            while session.step():
                pass
        finally:
            # A mid-run failure (strategy bug, interrupt) must not leave
            # orphaned decode states behind: the engine stays usable.
            session.release_states()
        return session.report()

    def serve_trace(self, entries: Iterable[ArrivedWorkload]) -> ServingReport:
        """Convenience: build requests from a serving trace and serve.

        Trace arrivals are validated by :func:`requests_from_trace`
        (negative arrivals raise, non-monotone traces warn).
        """
        return self.serve(requests_from_trace(entries))
