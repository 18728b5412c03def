"""Request lifecycle for multi-request serving.

A :class:`Request` is the unit of admission: it arrives at a simulated
instant, waits in the priority-then-FCFS queue, runs its prefill (one
dedicated step, or several bounded chunks when chunked prefill is on),
then decodes one token per fused batch step until its budget is
exhausted:

    QUEUED → PREFILL → DECODING ⇄ PREEMPTED → FINISHED

``PREEMPTED`` is only reachable with cooperative preemption enabled: a
paused request keeps its decode state and cache residency and resumes
decoding without recompute.

Each request carries a **priority class** (``"batch"`` < ``"interactive"``)
and an optional per-request TBT deadline used for SLO attainment
reporting. The live object is mutated by the serving loop;
:meth:`Request.to_record` freezes the lifecycle into a
:class:`~repro.engine.metrics.RequestRecord` for reporting once the
request finishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.engine.metrics import GenerationResult, RequestRecord, StepMetrics
from repro.errors import ConfigError, SimulationError
from repro.workloads.generator import (
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    ArrivedWorkload,
)

__all__ = [
    "PRIORITY_CLASSES",
    "DEFAULT_PRIORITY",
    "priority_rank",
    "RequestStatus",
    "TERMINAL_STATUSES",
    "Request",
]


def priority_rank(priority: str) -> int:
    """Numeric precedence of a priority class (higher = served first)."""
    try:
        return PRIORITY_CLASSES.index(priority)
    except ValueError:
        known = ", ".join(PRIORITY_CLASSES)
        raise ConfigError(
            f"unknown priority class {priority!r} (known: {known})"
        ) from None


class RequestStatus(str, Enum):
    """Lifecycle stages of a served request.

    ``FINISHED``, ``TIMED_OUT`` and ``SHED`` are **terminal**: every
    submitted request reaches exactly one of them exactly once (the
    chaos-harness invariant). A timed-out request exceeded its
    ``request_timeout_s`` budget and had its partial work released
    (cache residency stays — warmed experts are not un-warmed); a shed
    request was refused admission by overload control and never ran.
    """

    QUEUED = "queued"
    PREFILL = "prefill"
    DECODING = "decoding"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    TIMED_OUT = "timed_out"
    SHED = "shed"


#: Statuses a request can end a serve in (exactly one, exactly once).
TERMINAL_STATUSES = frozenset(
    {RequestStatus.FINISHED, RequestStatus.TIMED_OUT, RequestStatus.SHED}
)


@dataclass
class Request:
    """One in-flight generation request.

    Parameters
    ----------
    request_id:
        Unique integer id; also keys the per-request decode state.
    prompt_tokens:
        Non-empty 1-D prompt id array.
    decode_steps:
        Decode tokens to generate after prefill (0 = prefill only).
    arrival_time:
        Simulated arrival instant (seconds).
    sample_seed:
        Extra key mixed into the request's decode-sampling stream.
        ``None`` in a *solo* serve uses the engine's default stream —
        the same derivation ``InferenceEngine.generate`` uses, which is
        what makes a single-request serve bit-identical to
        ``generate``. ``None`` in a multi-request serve falls back to
        the request id, so concurrent default requests sample
        independently; :meth:`from_workload` sets the id explicitly.
    priority:
        Priority class (one of :data:`PRIORITY_CLASSES`); higher
        classes are admitted first and, with preemption on, may pause
        lower-class decoders under overload.
    tbt_deadline:
        Optional per-request TBT SLO target in seconds; requests whose
        p99 TBT stays within it count as SLO-attained in the serving
        report. Purely observational — it never changes scheduling.
    """

    request_id: int
    prompt_tokens: np.ndarray
    decode_steps: int
    arrival_time: float = 0.0
    sample_seed: int | None = None
    priority: str = DEFAULT_PRIORITY
    tbt_deadline: float | None = None

    # lifecycle fields, filled in by the serving loop -------------------
    status: RequestStatus = RequestStatus.QUEUED
    #: Warm-engine clock offset added to ``arrival_time`` at admission
    #: (0 on a fresh engine). ``relative_arrival`` undoes it so queue
    #: ordering always compares trace-relative instants, even when
    #: admitted-then-preempted requests (shifted) compete with
    #: still-queued ones (unshifted).
    arrival_shift: float = 0.0
    prefill_start: float | None = None
    first_token_time: float | None = None
    #: Emission instant of the most recent token; TBT entries are gaps
    #: between consecutive emissions, so stalls caused by interleaved
    #: prefills of other requests are charged to the waiting tokens.
    last_token_time: float | None = None
    finish_time: float | None = None
    output_tokens: list[int] = field(default_factory=list)
    tbt_values: list[float] = field(default_factory=list)
    last_hidden: np.ndarray | None = None
    result: GenerationResult | None = None
    #: Prompt tokens already prefilled (chunked prefill cursor).
    prefill_pos: int = 0
    #: Per-chunk step metrics of a chunked prefill, merged at completion.
    prefill_chunks: list[StepMetrics] = field(default_factory=list)
    #: Times this request was paused by cooperative preemption.
    num_preemptions: int = 0
    #: Times this request was re-routed to another replica after its
    #: replica crashed (always 0 outside fleet serving).
    num_failovers: int = 0
    #: Times this request was re-submitted after timing out (fleet
    #: retry-with-backoff; always 0 outside fleet serving).
    num_retries: int = 0

    def __post_init__(self) -> None:
        self.prompt_tokens = np.asarray(self.prompt_tokens, dtype=np.int64)
        if self.prompt_tokens.ndim != 1 or self.prompt_tokens.size == 0:
            raise ConfigError(
                f"request {self.request_id}: prompt_tokens must be a non-empty "
                f"1-D id array"
            )
        if self.decode_steps < 0:
            raise ConfigError(
                f"request {self.request_id}: decode_steps must be non-negative, "
                f"got {self.decode_steps}"
            )
        if self.arrival_time < 0:
            raise ConfigError(
                f"request {self.request_id}: arrival_time must be non-negative, "
                f"got {self.arrival_time}"
            )
        priority_rank(self.priority)  # validates the class name
        if self.tbt_deadline is not None and not self.tbt_deadline > 0:
            raise ConfigError(
                f"request {self.request_id}: tbt_deadline must be positive, "
                f"got {self.tbt_deadline}"
            )

    @classmethod
    def from_workload(cls, request_id: int, arrived: ArrivedWorkload) -> "Request":
        """Build a request from one serving-trace entry."""
        return cls(
            request_id=request_id,
            prompt_tokens=np.asarray(arrived.workload.prompt_tokens),
            decode_steps=arrived.workload.decode_steps,
            arrival_time=arrived.arrival_time,
            sample_seed=request_id,
            priority=arrived.priority,
            tbt_deadline=arrived.tbt_deadline,
        )

    def clone_for_failover(self, arrival_time: float) -> "Request":
        """Fresh copy for re-routing after a replica crash.

        The clone keeps the request's identity and sampling contract
        (id, prompt, decode budget, ``sample_seed``, class, deadline)
        but restarts the lifecycle: it arrives at the crash-observation
        instant and owes its full prefill and decode again — partial
        work died with the replica. Preemption history is wiped with
        the rest of the lifecycle (it described the dead replica's
        scheduling); the failover count carries over and increments.
        """
        return Request(
            request_id=self.request_id,
            prompt_tokens=self.prompt_tokens,
            decode_steps=self.decode_steps,
            arrival_time=arrival_time,
            sample_seed=self.sample_seed,
            priority=self.priority,
            tbt_deadline=self.tbt_deadline,
            num_failovers=self.num_failovers + 1,
            num_retries=self.num_retries,
        )

    def clone_for_retry(self, arrival_time: float) -> "Request":
        """Fresh copy for re-submission after a request timeout.

        The same lifecycle restart as :meth:`clone_for_failover` — the
        partial work was released with the timeout, so the clone owes
        its full prefill and decode — but it is the *retry* counter
        that increments, and the arrival instant carries the fleet's
        exponential backoff. The timeout budget restarts with the new
        arrival: each attempt gets the full ``request_timeout_s``.
        """
        return Request(
            request_id=self.request_id,
            prompt_tokens=self.prompt_tokens,
            decode_steps=self.decode_steps,
            arrival_time=arrival_time,
            sample_seed=self.sample_seed,
            priority=self.priority,
            tbt_deadline=self.tbt_deadline,
            num_failovers=self.num_failovers,
            num_retries=self.num_retries + 1,
        )

    # ------------------------------------------------------------------
    @property
    def priority_rank(self) -> int:
        """Numeric precedence of this request's class."""
        return priority_rank(self.priority)

    @property
    def relative_arrival(self) -> float:
        """Trace-relative arrival instant (warm-engine shift undone)."""
        return self.arrival_time - self.arrival_shift

    @property
    def prompt_len(self) -> int:
        """Prompt length in tokens."""
        return int(self.prompt_tokens.size)

    @property
    def tokens_remaining(self) -> int:
        """Decode tokens still owed once the request is decoding."""
        return self.decode_steps - len(self.tbt_values)

    @property
    def is_finished(self) -> bool:
        """Whether the request reached the FINISHED state."""
        return self.status is RequestStatus.FINISHED

    @property
    def is_terminal(self) -> bool:
        """Whether the request reached any terminal state."""
        return self.status in TERMINAL_STATUSES

    @property
    def is_preempted(self) -> bool:
        """Whether the request is currently paused by preemption."""
        return self.status is RequestStatus.PREEMPTED

    def to_record(self) -> RequestRecord:
        """Freeze the terminal lifecycle into a reporting record.

        Only terminal requests have records: ``finish_time`` is the
        completion instant for FINISHED, and the abort-observation
        instant for TIMED_OUT / SHED. A timed-out request may have a
        partial lifecycle (prefill started but no first token, say); a
        shed request has none — the record keeps those fields ``None``.
        """
        if self.status not in TERMINAL_STATUSES or self.finish_time is None:
            raise SimulationError(
                f"request {self.request_id} has not reached a terminal "
                f"status (status {self.status.value})"
            )
        if self.is_finished:
            # A completed lifecycle always has both prefill instants.
            assert self.prefill_start is not None
            assert self.first_token_time is not None
        return RequestRecord(
            request_id=self.request_id,
            prompt_len=self.prompt_len,
            decode_tokens=len(self.tbt_values),
            arrival_time=self.arrival_time,
            prefill_start=self.prefill_start,
            first_token_time=self.first_token_time,
            finish_time=self.finish_time,
            tbt_values=tuple(self.tbt_values),
            result=self.result,
            priority=self.priority,
            tbt_deadline=self.tbt_deadline,
            num_preemptions=self.num_preemptions,
            num_failovers=self.num_failovers,
            status=self.status.value,
            num_retries=self.num_retries,
        )
