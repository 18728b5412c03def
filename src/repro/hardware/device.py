"""Resource timelines: append-only busy-interval ledgers per device.

A :class:`ResourceTimeline` records every interval a resource (GPU, CPU
or the PCIe link) is busy, enforces monotonicity (no overlapping work on
a serial resource) and answers utilisation queries. It is the audit
trail of both the planner's schedule simulations and the engine's actual
execution.

Because work queues strictly behind earlier work, both the interval
start times and the finish times are non-decreasing; the windowed
accounting queries (:meth:`ResourceTimeline.busy_time`) exploit that to
bisect to the overlapping slice instead of rescanning the whole ledger.
The bisected sum adds exactly the same floats in exactly the same order
as a full linear scan of ``intervals`` (skipped intervals contribute
nothing), so the two agree bit-for-bit; the property test in
``tests/hardware/test_device.py`` holds it to that brute-force sum, and
:meth:`ResourceTimeline.validate` checks the parallel arrays the bisection
reads against the interval ledger.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["TimelineInterval", "ResourceTimeline"]

_TIME_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TimelineInterval:
    """One busy interval on a resource."""

    start: float
    finish: float
    label: str

    @property
    def duration(self) -> float:
        return self.finish - self.start


class ResourceTimeline:
    """Serial resource with an append-only schedule.

    Intervals must be reserved in non-decreasing start order; each
    reservation returns the actual ``(start, finish)`` pair after
    queueing behind earlier work.

    Parameters
    ----------
    name:
        Resource name used in labels and error messages.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._intervals: list[TimelineInterval] = []
        # Parallel start/finish arrays (both non-decreasing by
        # construction) backing the bisected accounting queries.
        self._starts: list[float] = []
        self._finishes: list[float] = []
        self._available_at = 0.0
        #: Optional advance hook set by the owning clock: called after
        #: every reservation that moves ``available_at`` forward, so
        #: frontier caches can update without rescanning timelines.
        self._observer = None

    @property
    def available_at(self) -> float:
        """Earliest time new work can start."""
        return self._available_at

    @property
    def intervals(self) -> list[TimelineInterval]:
        """All reserved intervals, in start order (copy-safe view)."""
        return list(self._intervals)

    def reserve(self, earliest_start: float, duration: float, label: str) -> tuple[float, float]:
        """Reserve ``duration`` seconds at or after ``earliest_start``.

        Returns
        -------
        tuple
            The committed ``(start, finish)`` times. Work queues behind
            any previously reserved interval.
        """
        if duration < 0:
            raise SimulationError(
                f"{self.name}: negative duration {duration} for {label!r}"
            )
        if earliest_start < -_TIME_TOLERANCE:
            raise SimulationError(
                f"{self.name}: negative start time {earliest_start} for {label!r}"
            )
        start = max(self._available_at, earliest_start)
        finish = start + duration
        if duration > 0.0:
            self._intervals.append(TimelineInterval(start, finish, label))
            self._starts.append(start)
            self._finishes.append(finish)
        if finish > self._available_at:
            self._available_at = finish
            if self._observer is not None:
                self._observer(finish)
        return start, finish

    def busy_time(self, window_start: float = 0.0, window_end: float | None = None) -> float:
        """Total busy seconds within ``[window_start, window_end]``."""
        if window_end is None:
            window_end = self._available_at
        if window_end < window_start:
            raise SimulationError(
                f"{self.name}: window end {window_end} before start {window_start}"
            )
        total = 0.0
        # Only intervals with finish > window_start and start <
        # window_end can overlap; both arrays are non-decreasing,
        # so the overlapping intervals form one contiguous slice.
        # Summing just that slice (in order) adds the exact floats
        # a full scan would - every skipped term is zero.
        lo_idx = bisect_right(self._finishes, window_start)
        hi_idx = bisect_left(self._starts, window_end, lo_idx)
        starts, finishes = self._starts, self._finishes
        for i in range(lo_idx, hi_idx):
            lo = max(starts[i], window_start)
            hi = min(finishes[i], window_end)
            if hi > lo:
                total += hi - lo
        return total

    def utilization(self, window_start: float = 0.0, window_end: float | None = None) -> float:
        """Busy fraction of the window (0 when the window is empty)."""
        if window_end is None:
            window_end = self._available_at
        span = window_end - window_start
        if span <= 0:
            return 0.0
        return self.busy_time(window_start, window_end) / span

    def validate(self) -> None:
        """Check the no-overlap invariant and the bisection arrays.

        ``_starts`` / ``_finishes`` are what :meth:`busy_time` reads;
        they must mirror the interval ledger exactly. Raises on
        violation.
        """
        for prev, curr in zip(self._intervals, self._intervals[1:]):
            if curr.start < prev.finish - _TIME_TOLERANCE:
                raise SimulationError(
                    f"{self.name}: interval {curr.label!r} starts at {curr.start} "
                    f"before {prev.label!r} finishes at {prev.finish}"
                )
        if self._starts != [i.start for i in self._intervals] or (
            self._finishes != [i.finish for i in self._intervals]
        ):
            raise SimulationError(
                f"{self.name}: bisection arrays diverge from the interval ledger"
            )
