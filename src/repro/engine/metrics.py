"""Latency and utilisation metrics (TTFT, TBT, hit rates, serving).

The paper evaluates Time To First Token for the prefill stage and Time
Between Tokens for decode (§VI-A.4). Both derive from the simulated
clock: a step's duration is the wall time between its start barrier and
the moment both compute resources drained.

Multi-request serving adds per-request records (queueing delay, TTFT
measured from *arrival*, TBT percentiles) and the fleet-level
:class:`ServingReport` (goodput, pooled latency percentiles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.hardware.faults import DegradationEvent

__all__ = [
    "StepMetrics",
    "GenerationResult",
    "latency_percentiles",
    "RequestRecord",
    "ServingReport",
]

#: Percentiles reported for every latency distribution.
PERCENTILES = (50, 95, 99)


def latency_percentiles(values: np.ndarray | list[float]) -> dict[str, float]:
    """p50/p95/p99 of a latency sample as a flat ``{"p50": ...}`` dict."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise SimulationError("cannot take percentiles of an empty latency sample")
    return {f"p{q}": float(np.percentile(arr, q)) for q in PERCENTILES}


def _sample_percentile(values, q: int, empty_message: str) -> float:
    """One percentile of a latency sample, with a contextual empty error."""
    if len(values) == 0:
        raise SimulationError(empty_message)
    return latency_percentiles(values)[f"p{q}"]


@dataclass(frozen=True)
class StepMetrics:
    """Timing and cache behaviour of one forward step."""

    stage: str  # "prefill" | "decode"
    n_tokens: int
    start: float
    end: float
    hits: int
    misses: int
    utilization: dict[str, float] = field(default_factory=dict)
    #: Number of sequences fused into this step (1 for solo generation;
    #: continuous batching merges one decode token per running request).
    batch_size: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class GenerationResult:
    """Full result of one prefill + decode generation run."""

    model_name: str
    strategy_name: str
    cache_ratio: float
    prefill: StepMetrics | None
    decode_steps: list[StepMetrics] = field(default_factory=list)
    total_hits: int = 0
    total_misses: int = 0

    @property
    def ttft(self) -> float:
        """Time To First Token: the prefill step's duration."""
        if self.prefill is None:
            raise SimulationError("run included no prefill step")
        return self.prefill.duration

    @property
    def tbt_values(self) -> np.ndarray:
        """Per-step decode latencies (Time Between Tokens)."""
        return np.array([s.duration for s in self.decode_steps], dtype=np.float64)

    @property
    def mean_tbt(self) -> float:
        """Mean decode latency per token."""
        if not self.decode_steps:
            raise SimulationError("run included no decode steps")
        return float(self.tbt_values.mean())

    @property
    def decode_throughput(self) -> float:
        """Decoded tokens per second."""
        return 1.0 / self.mean_tbt

    def _tbt_percentile(self, q: int) -> float:
        return _sample_percentile(
            self.tbt_values, q, "run included no decode steps"
        )

    @property
    def p50_tbt(self) -> float:
        """Median decode latency per token."""
        return self._tbt_percentile(50)

    @property
    def p95_tbt(self) -> float:
        """95th-percentile decode latency per token."""
        return self._tbt_percentile(95)

    @property
    def p99_tbt(self) -> float:
        """99th-percentile decode latency per token (tail latency)."""
        return self._tbt_percentile(99)

    @property
    def hit_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_hits / total if total else 0.0

    def decode_hit_rate(self) -> float:
        """Hit rate over decode steps only (the Fig. 9 metric)."""
        hits = sum(s.hits for s in self.decode_steps)
        misses = sum(s.misses for s in self.decode_steps)
        total = hits + misses
        return hits / total if total else 0.0

    def mean_utilization(self, stage: str) -> dict[str, float]:
        """Average per-resource busy fraction across steps of a stage."""
        steps = (
            [self.prefill]
            if stage == "prefill" and self.prefill is not None
            else self.decode_steps
            if stage == "decode"
            else []
        )
        if not steps:
            return {}
        keys = steps[0].utilization.keys()
        return {
            k: float(np.mean([s.utilization.get(k, 0.0) for s in steps])) for k in keys
        }

    def summary(self) -> dict[str, float | str]:
        """Flat record for tabulation in the experiment harness."""
        record: dict[str, float | str] = {
            "model": self.model_name,
            "strategy": self.strategy_name,
            "cache_ratio": self.cache_ratio,
            "hit_rate": self.hit_rate,
        }
        if self.prefill is not None:
            record["ttft"] = self.ttft
        if self.decode_steps:
            record["mean_tbt"] = self.mean_tbt
            record["p50_tbt"] = self.p50_tbt
            record["p95_tbt"] = self.p95_tbt
            record["p99_tbt"] = self.p99_tbt
            record["decode_hit_rate"] = self.decode_hit_rate()
        return record


@dataclass(frozen=True)
class RequestRecord:
    """Frozen serving-side lifecycle record of one terminal request.

    All times are absolute simulated seconds on the shared clock; TTFT
    is measured from *arrival* (the serving convention), so it includes
    queueing delay on top of the prefill computation itself.

    ``status`` distinguishes the terminal outcomes: ``"finished"``
    records always carry both prefill instants, while ``"timed_out"``
    records may have a partial lifecycle (``prefill_start`` and/or
    ``first_token_time`` ``None`` when the request never got that far)
    and ``"shed"`` records have neither — for those, ``finish_time``
    is the abort-observation instant.
    """

    request_id: int
    prompt_len: int
    decode_tokens: int
    arrival_time: float
    prefill_start: float | None
    first_token_time: float | None
    finish_time: float
    tbt_values: tuple[float, ...]
    result: "GenerationResult | None" = None
    #: Priority class the request was served under.
    priority: str = "batch"
    #: Per-request TBT SLO target in seconds (None = no deadline).
    tbt_deadline: float | None = None
    #: Times the request was paused by cooperative preemption.
    num_preemptions: int = 0
    #: Times the request was re-routed after a replica crash (fleet
    #: serving only; always 0 on a single engine).
    num_failovers: int = 0
    #: Terminal status the request ended in ("finished", "timed_out"
    #: or "shed").
    status: str = "finished"
    #: Times the request was re-submitted after a timeout (fleet
    #: retry-with-backoff; always 0 on a single engine).
    num_retries: int = 0

    @property
    def is_completed(self) -> bool:
        """Whether the request actually finished its generation."""
        return self.status == "finished"

    @property
    def queueing_delay(self) -> float:
        """Seconds the request waited before its prefill started."""
        if self.prefill_start is None:
            raise SimulationError(
                f"request {self.request_id} never started its prefill "
                f"(status {self.status})"
            )
        return self.prefill_start - self.arrival_time

    @property
    def meets_tbt_deadline(self) -> bool | None:
        """Whether p99 TBT stayed within the deadline (None = no SLO).

        Prefill-only requests with a deadline trivially meet it (they
        emit no decode tokens to violate it).
        """
        if self.tbt_deadline is None:
            return None
        if not self.tbt_values:
            return True
        return self.p99_tbt <= self.tbt_deadline

    @property
    def ttft(self) -> float:
        """Arrival-to-first-token latency (queueing + prefill)."""
        if self.first_token_time is None:
            raise SimulationError(
                f"request {self.request_id} never emitted a first token "
                f"(status {self.status})"
            )
        return self.first_token_time - self.arrival_time

    @property
    def e2e_latency(self) -> float:
        """Arrival-to-completion latency."""
        return self.finish_time - self.arrival_time

    def _tbt_percentile(self, q: int) -> float:
        return _sample_percentile(
            self.tbt_values,
            q,
            f"request {self.request_id} generated no decode tokens",
        )

    @property
    def p50_tbt(self) -> float:
        return self._tbt_percentile(50)

    @property
    def p95_tbt(self) -> float:
        return self._tbt_percentile(95)

    @property
    def p99_tbt(self) -> float:
        return self._tbt_percentile(99)

    def summary(self) -> dict[str, float | int]:
        """Flat per-request row for the serving report table."""
        # Keys are emitted unconditionally (NaN for a prefill-only
        # request, or one aborted before reaching that lifecycle
        # instant): table renderers derive columns from the first row,
        # so a variable key set would silently drop columns for every
        # other request.
        has_tbt = bool(self.tbt_values)
        return {
            "request": self.request_id,
            "class": self.priority,
            "status": self.status,
            "prompt_len": self.prompt_len,
            "tokens": self.decode_tokens,
            "arrival_s": self.arrival_time,
            "queue_delay_s": (
                self.queueing_delay
                if self.prefill_start is not None
                else float("nan")
            ),
            "ttft_s": (
                self.ttft if self.first_token_time is not None else float("nan")
            ),
            "p50_tbt_s": self.p50_tbt if has_tbt else float("nan"),
            "p95_tbt_s": self.p95_tbt if has_tbt else float("nan"),
            "p99_tbt_s": self.p99_tbt if has_tbt else float("nan"),
            "e2e_s": self.e2e_latency,
            "preemptions": self.num_preemptions,
            "failovers": self.num_failovers,
            "retries": self.num_retries,
        }


@dataclass
class ServingReport:
    """Aggregate outcome of one multi-request serving run.

    ``requests`` holds every *terminal* record — completed, timed-out
    and shed alike (the chaos invariant: every submitted request lands
    in this list exactly once, fleet-wide after :meth:`merged`).
    Latency and goodput metrics are computed over the **completed**
    subset only; aborted requests contribute to counts
    (``num_timeouts``, ``num_shed``) and to the makespan, never to
    percentiles.
    """

    model_name: str
    strategy_name: str
    cache_ratio: float
    max_batch_size: int
    requests: list[RequestRecord] = field(default_factory=list)
    total_hits: int = 0
    total_misses: int = 0
    #: Total cooperative preemptions performed during the run.
    preemptions: int = 0
    #: Hardware-degradation log: one event per change of the active
    #: fault set on a replica, in observation order.
    degradations: "list[DegradationEvent]" = field(default_factory=list)

    @classmethod
    def merged(cls, reports: "list[ServingReport]") -> "ServingReport":
        """Pool per-replica reports into one fleet-wide report.

        Replicas must be homogeneous (same model, strategy, cache
        ratio, batch ceiling) — a fleet mixing configurations has no
        single meaningful aggregate row. Records are pooled and
        re-sorted by request id; every percentile/goodput property then
        recomputes from the pooled records exactly as a single-engine
        report would, which is what the report-merge backfill test pins
        against a by-hand recomputation. Duplicate request ids across
        replicas are rejected: a request must finish on exactly one
        replica, failovers included.
        """
        if not reports:
            raise SimulationError("cannot merge zero serving reports")
        head = reports[0]
        for report in reports[1:]:
            mismatched = [
                name
                for name in (
                    "model_name",
                    "strategy_name",
                    "cache_ratio",
                    "max_batch_size",
                )
                if getattr(report, name) != getattr(head, name)
            ]
            if mismatched:
                raise SimulationError(
                    f"cannot merge heterogeneous serving reports "
                    f"(differing {', '.join(mismatched)})"
                )
        pooled = [r for report in reports for r in report.requests]
        ids = [r.request_id for r in pooled]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        if duplicates:
            raise SimulationError(
                f"request ids finished on more than one replica: {duplicates}"
            )
        return cls(
            model_name=head.model_name,
            strategy_name=head.strategy_name,
            cache_ratio=head.cache_ratio,
            max_batch_size=head.max_batch_size,
            requests=sorted(pooled, key=lambda r: r.request_id),
            total_hits=sum(r.total_hits for r in reports),
            total_misses=sum(r.total_misses for r in reports),
            preemptions=sum(r.preemptions for r in reports),
            degradations=sorted(
                (d for report in reports for d in report.degradations),
                key=lambda d: (d.time, d.replica),
            ),
        )

    @property
    def num_requests(self) -> int:
        """Terminal records of any status (completed + aborted)."""
        return len(self.requests)

    @property
    def completed(self) -> list[RequestRecord]:
        """Records of requests that actually finished generating."""
        return [r for r in self.requests if r.is_completed]

    @property
    def num_completed(self) -> int:
        """Requests that finished their full generation."""
        return sum(1 for r in self.requests if r.is_completed)

    @property
    def num_timeouts(self) -> int:
        """Requests aborted for exceeding their timeout budget."""
        return sum(1 for r in self.requests if r.status == "timed_out")

    @property
    def num_shed(self) -> int:
        """Requests refused admission by overload shedding."""
        return sum(1 for r in self.requests if r.status == "shed")

    @property
    def num_retries(self) -> int:
        """Total timeout re-submissions across terminal requests."""
        return sum(r.num_retries for r in self.requests)

    @property
    def num_failovers(self) -> int:
        """Total replica-crash re-routings across finished requests."""
        return sum(r.num_failovers for r in self.requests)

    @property
    def first_arrival(self) -> float:
        if not self.requests:
            raise SimulationError("serving run completed no requests")
        return min(r.arrival_time for r in self.requests)

    @property
    def last_finish(self) -> float:
        if not self.requests:
            raise SimulationError("serving run completed no requests")
        return max(r.finish_time for r in self.requests)

    @property
    def makespan(self) -> float:
        """Wall time from first arrival to the last terminal instant.

        Spans *all* terminal records: an aborted request's
        ``finish_time`` is its abort-observation instant, so degraded
        runs are charged the full window in which they held resources.
        """
        return self.last_finish - self.first_arrival

    @property
    def goodput(self) -> float:
        """Completed requests per simulated second of the serving window.

        Timed-out and shed requests do not count — goodput measures
        work *delivered*, which is what the chaos benchmark's
        degraded-mode retention ratio compares against a fault-free
        run.
        """
        span = self.makespan
        if span <= 0.0:
            raise SimulationError("serving window is empty")
        return self.num_completed / span

    @property
    def token_throughput(self) -> float:
        """Delivered decode tokens per simulated second.

        Tokens of aborted requests were released with their partial
        work and never delivered, so only completed requests count.
        """
        span = self.makespan
        if span <= 0.0:
            raise SimulationError("serving window is empty")
        return sum(r.decode_tokens for r in self.completed) / span

    @property
    def hit_rate(self) -> float:
        total = self.total_hits + self.total_misses
        return self.total_hits / total if total else 0.0

    @property
    def mean_queueing_delay(self) -> float:
        completed = self.completed
        if not completed:
            raise SimulationError("serving run completed no requests")
        return float(np.mean([r.queueing_delay for r in completed]))

    def ttft_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of arrival-to-first-token across completed requests."""
        return latency_percentiles([r.ttft for r in self.completed])

    def tbt_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 over every decode token of every completed request."""
        pooled = [tbt for r in self.completed for tbt in r.tbt_values]
        return latency_percentiles(pooled)

    def per_request_rows(self) -> list[dict[str, float | int]]:
        """Per-request table rows, ordered by request id."""
        return [r.summary() for r in sorted(self.requests, key=lambda r: r.request_id)]

    # ------------------------------------------------------------------
    # per-class (SLO) views
    # ------------------------------------------------------------------
    def priority_classes(self) -> list[str]:
        """Priority classes present, sorted by name."""
        return sorted({r.priority for r in self.requests})

    def requests_of_class(self, priority: str) -> list[RequestRecord]:
        """Terminal requests of one priority class, by request id."""
        return sorted(
            (r for r in self.requests if r.priority == priority),
            key=lambda r: r.request_id,
        )

    def class_goodput(self, priority: str) -> float:
        """Completed requests of a class per second of the full window."""
        span = self.makespan
        if span <= 0.0:
            raise SimulationError("serving window is empty")
        completed = sum(
            1 for r in self.requests_of_class(priority) if r.is_completed
        )
        return completed / span

    def class_summary(self) -> list[dict[str, float | int | str]]:
        """One aggregate row per priority class (the SLO view).

        Each row carries the class's request count, goodput over the
        shared serving window, TTFT and TBT percentiles, preemption
        count, and — when any request of the class has a
        ``tbt_deadline`` — the fraction whose p99 TBT met it
        (``slo_attainment``).
        """
        rows: list[dict[str, float | int | str]] = []
        for priority in self.priority_classes():
            records = self.requests_of_class(priority)
            completed = [r for r in records if r.is_completed]
            row: dict[str, float | int | str] = {
                "class": priority,
                "requests": len(records),
                "goodput_rps": self.class_goodput(priority),
                "preemptions": sum(r.num_preemptions for r in records),
                "timeouts": sum(1 for r in records if r.status == "timed_out"),
                "shed": sum(1 for r in records if r.status == "shed"),
            }
            # Latency percentiles cover the completed subset; a class
            # whose every request was aborted gets NaN, not an error —
            # it still has a meaningful count/goodput row.
            if completed:
                ttft = latency_percentiles([r.ttft for r in completed])
            else:
                ttft = {f"p{q}": float("nan") for q in PERCENTILES}
            for name, value in ttft.items():
                row[f"{name}_ttft_s"] = value
            pooled = [tbt for r in completed for tbt in r.tbt_values]
            if pooled:
                tbt = latency_percentiles(pooled)
            else:
                tbt = {f"p{q}": float("nan") for q in PERCENTILES}
            for name, value in tbt.items():
                row[f"{name}_tbt_s"] = value
            verdicts = [
                r.meets_tbt_deadline
                for r in completed
                if r.meets_tbt_deadline is not None
            ]
            row["slo_attainment"] = (
                sum(verdicts) / len(verdicts) if verdicts else float("nan")
            )
            rows.append(row)
        return rows

    def summary(self) -> dict[str, float | int | str]:
        """Flat aggregate record for tabulation and benchmarks; total:
        NaN window metrics for a report with no request (a fleet replica
        the router never picked), NaN rates for an empty window."""
        has_completed = self.num_completed > 0
        nan = float("nan")
        span = self.makespan if self.requests else nan
        has_window = span > 0.0  # False for NaN
        record: dict[str, float | int | str] = {
            "model": self.model_name,
            "strategy": self.strategy_name,
            "cache_ratio": self.cache_ratio,
            "requests": self.num_requests,
            "completed": self.num_completed,
            "timeouts": self.num_timeouts,
            "shed": self.num_shed,
            "makespan_s": span,
            "goodput_rps": self.goodput if has_window else nan,
            "token_throughput": self.token_throughput if has_window else nan,
            "mean_queue_delay_s": (
                self.mean_queueing_delay if has_completed else nan
            ),
            "hit_rate": self.hit_rate,
            "preemptions": self.preemptions,
            "failovers": self.num_failovers,
            "retries": self.num_retries,
        }
        # Fixed key set (NaN for an all-prefill or all-aborted run):
        # table renderers derive columns from the first row, and sweep
        # code indexes summary["p99_tbt_s"] unconditionally.
        if has_completed:
            ttft = self.ttft_percentiles()
        else:
            ttft = {f"p{q}": nan for q in PERCENTILES}
        for name, value in ttft.items():
            record[f"{name}_ttft_s"] = value
        if any(r.tbt_values for r in self.completed):
            tbt = self.tbt_percentiles()
        else:
            tbt = {f"p{q}": nan for q in PERCENTILES}
        for name, value in tbt.items():
            record[f"{name}_tbt_s"] = value
        return record
