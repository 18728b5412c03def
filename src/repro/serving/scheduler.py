"""Admission and continuous batching for the serving loop.

The scheduler implements iteration-level ("continuous") batching in the
style of Orca/vLLM, adapted to the simulated hybrid platform:

- **priority-then-FCFS admission** — queued requests are admitted by
  priority class first (``interactive`` before ``batch``), then arrival
  order within a class; with a single class this degenerates to pure
  FCFS, bit-identical to the historical policy;
- **fused decode** — all running requests advance one token per step in
  a single batched forward pass, so the hybrid scheduler, MRS cache and
  prefetcher see the *merged* expert working set of the whole batch;
- **chunked prefill** — with ``prefill_chunk_tokens`` set, a long
  prompt admitted while an SLO-class request (any class above the
  default) decodes prefills in bounded slices that *ride the fused
  decode steps* (one hybrid step per slice), so a long prompt can no
  longer head-of-line-block an SLO-class decoder for its whole
  prefill, and the slice's expert work amortises with the decode
  batch's plan instead of paying dedicated extra steps;
- **cooperative preemption** — with ``preemption`` on, an arrived
  higher-priority request may pause the lowest-priority decoding
  request when the batch is full; the victim's decode state survives
  untouched and it resumes (no recompute) once capacity frees up;
- **work conservation with idle jump** — when nothing is running and no
  request has arrived yet, the earliest-arriving request is admitted
  with a ``not_before`` floor at its arrival instant; the
  discrete-event clock simply idles up to it.

Decisions are pure functions of ``(now, queue, running, prefilling,
preempted)`` so the policy is unit-testable without an engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.request import Request

__all__ = ["ServingConfig", "Action", "ContinuousBatchingScheduler"]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving loop.

    Attributes
    ----------
    max_batch_size:
        Maximum number of concurrently decoding requests (the fused
        decode step's batch size ceiling). A request mid-chunked-prefill
        counts against the ceiling — it will decode as soon as its
        prefill completes.
    prefill_chunk_tokens:
        Split a prompt longer than this many tokens into prefill
        slices of at most this size whenever an **SLO-class** request
        (any class above the default) is decoding — whatever the
        admitted prompt's own class; each slice rides the next fused
        decode step as one hybrid batch, bounding the protected
        decoder's stall to a slice's worth of prefill work.
        Default-class decoders eat the whole-prompt stall (so a
        default-class-only run never pays slice overhead), and with
        the decode batch drained mid-prefill the remaining prompt runs
        as one step. ``None`` (default) always runs the whole prefill
        as one dedicated step — the historical behaviour.
    preemption:
        Allow an *arrived* strictly-higher-priority queued request to
        pause the lowest-priority decoding request when the batch is
        full. Off by default.
    request_timeout_s:
        Per-request end-to-end budget in trace-relative seconds,
        measured from the request's arrival. A request still unfinished
        when the budget elapses is aborted at the next step boundary
        (terminal status ``TIMED_OUT``): its partial work is released,
        but cache residency earned on its behalf stays — warmed experts
        are not un-warmed. ``None`` (default) disables timeouts.
    shed_queue_depth:
        Overload-shedding high watermark: when the number of *arrived*
        queued requests reaches this depth at a step boundary, requests
        are refused admission (terminal status ``SHED``) until the
        backlog drops to ``shed_resume_depth``. Shedding picks the
        lowest priority class first and the newest arrival within a
        class, so interactive requests shed last. ``None`` (default)
        disables shedding.
    shed_resume_depth:
        Overload-shedding low watermark — the backlog depth a shed
        sweep drains down to. The high→low band is the hysteresis:
        one sweep sheds a batch, then admission runs normally until
        the backlog climbs back to the high watermark, instead of
        oscillating one request at a time around a single threshold.
        Defaults to half of ``shed_queue_depth``.
    """

    max_batch_size: int = 8
    prefill_chunk_tokens: int | None = None
    preemption: bool = False
    request_timeout_s: float | None = None
    shed_queue_depth: int | None = None
    shed_resume_depth: int | None = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.prefill_chunk_tokens is not None and self.prefill_chunk_tokens < 1:
            raise ConfigError(
                f"prefill_chunk_tokens must be >= 1 (or None), got "
                f"{self.prefill_chunk_tokens}"
            )
        # ``not 0 < x < inf``, not ``x <= 0``: NaN fails every
        # comparison, so only this form rejects it (None = no timeout).
        if self.request_timeout_s is not None and not (
            0.0 < self.request_timeout_s < math.inf
        ):
            raise ConfigError(
                f"request_timeout_s must be positive and finite (or None), "
                f"got {self.request_timeout_s}"
            )
        if self.shed_queue_depth is not None and self.shed_queue_depth < 1:
            raise ConfigError(
                f"shed_queue_depth must be >= 1 (or None), got "
                f"{self.shed_queue_depth}"
            )
        if self.shed_resume_depth is not None:
            if self.shed_queue_depth is None:
                raise ConfigError(
                    "shed_resume_depth requires shed_queue_depth"
                )
            if not 0 <= self.shed_resume_depth < self.shed_queue_depth:
                raise ConfigError(
                    f"shed_resume_depth must be in [0, shed_queue_depth), got "
                    f"{self.shed_resume_depth} with high watermark "
                    f"{self.shed_queue_depth}"
                )


@dataclass(frozen=True)
class Action:
    """One scheduling decision for the next engine iteration.

    ``kind`` is one of:

    - ``"admit"`` — start ``request``'s prefill (first chunk when
      chunking is on and others are decoding), no earlier than
      ``not_before``;
    - ``"prefill"`` — finish the in-progress chunked prefill (only
      issued when nothing decodes, so the remainder runs as one step);
    - ``"decode"`` — advance every running request one token in a
      fused step, carrying the next slice of an in-progress chunked
      prefill when there is one (a hybrid step);
    - ``"preempt"`` — pause ``request`` (the chosen victim), freeing a
      batch slot for a higher-priority arrival;
    - ``"resume"`` — return the paused ``request`` to the decode batch.
    """

    kind: str
    request: "Request | None" = None
    not_before: float = 0.0


def _admission_key(request: "Request") -> tuple:
    """Sort key for admission candidates: priority, then FCFS.

    Arrival is compared trace-relative (``relative_arrival``): preempted
    requests had their ``arrival_time`` shifted onto the warm clock at
    admission, while queued ones have not, and FCFS-within-class must
    not depend on that bookkeeping difference.
    """
    return (-request.priority_rank, request.relative_arrival, request.request_id)


class ContinuousBatchingScheduler:
    """Priority-then-FCFS admission + iteration-level batching policy."""

    def __init__(self, config: ServingConfig | None = None) -> None:
        self.config = config or ServingConfig()

    def next_action(
        self,
        now: float,
        queued: "Sequence[Request]",
        running: "Sequence[Request]",
        prefilling: "Request | None" = None,
        preempted: "Sequence[Request]" = (),
    ) -> Action | None:
        """Decide the next iteration given queue/batch occupancy.

        Parameters
        ----------
        now:
            Current simulated time (the clock's compute frontier).
        queued:
            Pending requests in arrival order (head first).
        running:
            Requests currently decoding in the fused batch.
        prefilling:
            The request mid-chunked-prefill, if any (at most one).
        preempted:
            Paused requests awaiting resumption, in preemption order.

        Returns
        -------
        Action or None
            ``None`` when there is nothing left to do (loop ends).
        """
        config = self.config
        occupancy = len(running) + (1 if prefilling is not None else 0)

        # 1. An in-progress chunked prefill rides the decode steps: the
        #    next slice fuses into the running batch's hybrid step. With
        #    the decoders drained there is no stall left to bound, so
        #    the remainder runs as one dedicated prefill step.
        if prefilling is not None:
            if running:
                return Action(kind="decode")
            return Action(kind="prefill", request=prefilling)

        arrived = [r for r in queued if r.arrival_time <= now]

        # 2. Cooperative preemption: a full batch yields its lowest-
        #    priority member to an arrived strictly-higher-priority
        #    arrival. The victim is the newest request of the lowest
        #    class, so older work keeps finishing.
        if (
            config.preemption
            and running
            and occupancy >= config.max_batch_size
            and arrived
        ):
            best = min(arrived, key=_admission_key)
            victim = min(
                running,
                key=lambda r: (
                    r.priority_rank,
                    -r.relative_arrival,
                    -r.request_id,
                ),
            )
            if best.priority_rank > victim.priority_rank:
                return Action(kind="preempt", request=victim)

        # 3. Admission / resumption: arrived queued requests and paused
        #    requests compete for free slots by (priority, arrival, id).
        if occupancy < config.max_batch_size:
            candidates = list(arrived) + list(preempted)
            if candidates:
                best = min(candidates, key=_admission_key)
                if best.is_preempted:
                    return Action(kind="resume", request=best)
                return Action(
                    kind="admit",
                    request=best,
                    not_before=max(now, best.arrival_time),
                )
            if not running and not preempted and queued:
                # Idle jump: nothing has arrived and the platform is
                # drained — admit the earliest future arrival and let
                # the clock idle up to it.
                head = min(
                    queued,
                    key=lambda r: (
                        r.arrival_time,
                        -r.priority_rank,
                        r.request_id,
                    ),
                )
                return Action(
                    kind="admit",
                    request=head,
                    not_before=max(now, head.arrival_time),
                )

        if running:
            return Action(kind="decode")
        if preempted:
            # Batch drained with paused work left (only reachable when
            # the ceiling is consumed by queued arrivals in the same
            # iteration — defensively resume the best candidate).
            best = min(preempted, key=_admission_key)  # pragma: no cover
            return Action(kind="resume", request=best)  # pragma: no cover
        return None
