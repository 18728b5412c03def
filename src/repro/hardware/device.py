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
``tests/hardware/test_device.py`` holds it to that brute-force sum.

The ledger is columnar: starts and finishes in two ``array("d")``
columns and labels in a list holding one string object per distinct
label, about 26 bytes per reservation. ``intervals`` materialises
:class:`TimelineInterval` rows on read; ``len()`` counts without them.
"""

from __future__ import annotations

from array import array
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
        # One column per field, one row per positive-duration
        # reservation. Starts and finishes are non-decreasing by
        # construction, so the accounting queries bisect them; each
        # label is stored as the first-seen string of its value.
        self._starts = array("d")
        self._finishes = array("d")
        self._labels: list[str] = []
        self._label_table: dict[str, str] = {}
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
        """All reserved intervals, in start order (a fresh list per read)."""
        return list(map(TimelineInterval, self._starts, self._finishes, self._labels))

    def __len__(self) -> int:
        """Number of recorded intervals, without materialising them."""
        return len(self._labels)

    def reserve(self, earliest_start: float, duration: float, label: str) -> tuple[float, float]:
        """Reserve ``duration`` seconds at or after ``earliest_start``.

        Returns
        -------
        tuple
            The committed ``(start, finish)`` times. Work queues behind
            any previously reserved interval. An infinite ``duration`` is
            legal (a dead resource); a negative or NaN one is not.
        """
        # ``not x >= bound``, not ``x < bound``: a comparison with NaN is
        # always false, so only this form rejects it.
        if not duration >= 0.0:
            raise SimulationError(
                f"{self.name}: negative or NaN duration {duration} for {label!r}"
            )
        if not earliest_start >= -_TIME_TOLERANCE:
            raise SimulationError(
                f"{self.name}: negative or NaN start time {earliest_start} for {label!r}"
            )
        start = max(self._available_at, earliest_start)
        finish = start + duration
        if duration > 0.0:
            self._starts.append(start)
            self._finishes.append(finish)
            self._labels.append(self._label_table.setdefault(label, label))
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
        """Check the columns: equal lengths, non-decreasing starts and
        finishes (what :meth:`busy_time` bisects) and no overlap beyond
        ``_TIME_TOLERANCE``. Raises on violation.
        """
        starts, finishes, labels = self._starts, self._finishes, self._labels
        if not len(starts) == len(finishes) == len(labels):
            raise SimulationError(
                f"{self.name}: column lengths differ: {len(starts)} starts, "
                f"{len(finishes)} finishes, {len(labels)} labels"
            )
        for i in range(1, len(labels)):
            if starts[i] < starts[i - 1] or finishes[i] < finishes[i - 1]:
                raise SimulationError(
                    f"{self.name}: interval {labels[i]!r} runs backwards from "
                    f"{labels[i - 1]!r}"
                )
            if starts[i] < finishes[i - 1] - _TIME_TOLERANCE:
                raise SimulationError(
                    f"{self.name}: interval {labels[i]!r} starts at {starts[i]} "
                    f"before {labels[i - 1]!r} finishes at {finishes[i - 1]}"
                )
