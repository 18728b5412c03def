"""Resource timeline invariants."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hardware.device import ResourceTimeline


class TestReserve:
    def test_sequential_queueing(self):
        timeline = ResourceTimeline("gpu")
        s1, f1 = timeline.reserve(0.0, 2.0, "a")
        s2, f2 = timeline.reserve(0.0, 3.0, "b")
        assert (s1, f1) == (0.0, 2.0)
        assert (s2, f2) == (2.0, 5.0)

    def test_gap_respected(self):
        timeline = ResourceTimeline("gpu")
        timeline.reserve(0.0, 1.0, "a")
        start, finish = timeline.reserve(5.0, 1.0, "b")
        assert (start, finish) == (5.0, 6.0)

    def test_zero_duration_does_not_record_interval(self):
        timeline = ResourceTimeline("gpu")
        timeline.reserve(1.0, 0.0, "noop")
        assert timeline.intervals == []

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            ResourceTimeline("gpu").reserve(0.0, -1.0, "bad")

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            ResourceTimeline("gpu").reserve(-1.0, 1.0, "bad")

    def test_nan_duration_rejected(self):
        """``NaN > 0.0`` is false: unchecked, a NaN duration would record
        nothing and hand back a NaN finish."""
        timeline = ResourceTimeline("pcie")
        with pytest.raises(SimulationError, match=r"^pcie: .*NaN duration nan for 'xfer L0 E1'$"):
            timeline.reserve(0.0, math.nan, "xfer L0 E1")
        assert timeline.available_at == 0.0 and len(timeline) == 0

    def test_nan_start_rejected(self):
        """``max(0.0, nan)`` is ``0.0``: unchecked, a NaN start would be
        silently coerced to ``available_at``."""
        timeline = ResourceTimeline("cpu")
        with pytest.raises(SimulationError, match=r"^cpu: .*NaN start time nan for 'cpu L2 E3'$"):
            timeline.reserve(math.nan, 1.0, "cpu L2 E3")
        assert timeline.available_at == 0.0 and len(timeline) == 0

    def test_infinite_duration_is_a_dead_resource(self):
        timeline = ResourceTimeline("gpu")
        assert timeline.reserve(1.0, math.inf, "dead") == (1.0, math.inf)
        assert timeline.available_at == math.inf
        assert timeline.reserve(0.0, 1.0, "never") == (math.inf, math.inf)
        timeline.validate()

    def test_len_counts_recorded_intervals(self):
        timeline = ResourceTimeline("disk")
        assert len(timeline) == 0
        timeline.reserve(0.0, 1.0, "a")
        timeline.reserve(0.0, 0.0, "noop")
        timeline.reserve(5.0, 1.0, "a")
        assert len(timeline) == len(timeline.intervals) == 2


class TestColumns:
    def test_memory_per_reservation(self):
        """The ledger stores columns, not an object per reservation:
        20 000 reservations over 64 distinct labels (each label freshly
        formatted, as the engine's callers do) cost <= 40 bytes each.
        A frozen dataclass per interval with its own label cost 205."""
        calls = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            timeline = ResourceTimeline("gpu")
            for i in range(calls):
                timeline.reserve(0.0, 1e-3, f"gpu L{i % 8} E{i % 64}")
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(timeline) == calls
        assert allocated / calls <= 40

    @given(
        calls=st.lists(
            st.tuples(
                st.floats(0.0, 20.0),
                st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                st.integers(0, 4),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_property_intervals_are_the_positive_reservations(self, calls):
        """``intervals`` is every positive-duration reservation's
        ``(start, finish, label)``, in order; zero durations, gaps and
        queueing included. Each label is the first-seen string object
        of its value."""
        timeline = ResourceTimeline("x")
        available = 0.0
        expected, first_seen = [], {}
        for earliest, duration, k in calls:
            label = "".join(["label ", str(k)])  # a fresh object per call
            start = max(available, earliest)
            finish = start + duration
            assert timeline.reserve(earliest, duration, label) == (start, finish)
            if duration > 0.0:
                expected.append((start, finish, label))
                first_seen.setdefault(label, label)
            available = max(available, finish)
        timeline.validate()
        intervals = timeline.intervals
        assert [(i.start, i.finish, i.label) for i in intervals] == expected
        assert len(timeline) == len(expected)
        assert all(i.label is first_seen[i.label] for i in intervals)
        assert timeline.intervals is not intervals  # a copy per read


class TestAccounting:
    def test_busy_time_full_window(self):
        timeline = ResourceTimeline("cpu")
        timeline.reserve(0.0, 2.0, "a")
        timeline.reserve(3.0, 1.0, "b")
        assert timeline.busy_time(0.0, 4.0) == pytest.approx(3.0)

    def test_busy_time_partial_window(self):
        timeline = ResourceTimeline("cpu")
        timeline.reserve(0.0, 4.0, "a")
        assert timeline.busy_time(1.0, 3.0) == pytest.approx(2.0)

    def test_utilization(self):
        timeline = ResourceTimeline("cpu")
        timeline.reserve(0.0, 1.0, "a")
        assert timeline.utilization(0.0, 4.0) == pytest.approx(0.25)

    def test_empty_window_utilization_zero(self):
        assert ResourceTimeline("cpu").utilization(1.0, 1.0) == 0.0

    def test_invalid_window(self):
        with pytest.raises(SimulationError):
            ResourceTimeline("cpu").busy_time(2.0, 1.0)

    @given(
        durations=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20),
        gaps=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_no_overlap_and_busy_bound(self, durations, gaps):
        timeline = ResourceTimeline("x")
        cursor = 0.0
        for duration, gap in zip(durations, gaps):
            cursor += gap
            timeline.reserve(cursor, duration, "t")
        timeline.validate()
        total = sum(d for d, _ in zip(durations, gaps))
        assert timeline.busy_time() == pytest.approx(total, rel=1e-9)
        assert timeline.busy_time() <= timeline.available_at + 1e-9

    @given(
        durations=st.lists(st.floats(0.0, 5.0), min_size=0, max_size=30),
        gaps=st.lists(st.floats(0.0, 3.0), min_size=30, max_size=30),
        window=st.tuples(st.floats(0.0, 120.0), st.floats(0.0, 120.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_busy_time_equals_linear_scan(self, durations, gaps, window):
        """The bisected windowed sum is the full scan of the ledger,
        float for float, for any window — inside, straddling or beyond
        the reserved range."""
        timeline = ResourceTimeline("x")
        cursor = 0.0
        for duration, gap in zip(durations, gaps):
            cursor += gap
            timeline.reserve(cursor, duration, "t")
        timeline.validate()
        window_start, window_end = sorted(window)
        expected = 0.0
        for interval in timeline.intervals:
            lo = max(interval.start, window_start)
            hi = min(interval.finish, window_end)
            if hi > lo:
                expected += hi - lo
        assert timeline.busy_time(window_start, window_end) == expected


class TestValidate:
    @pytest.mark.parametrize(
        ("corrupt", "message"),
        [
            (lambda t: t._starts.pop(), "column lengths differ"),
            (lambda t: t._labels.append("c"), "column lengths differ"),
            (lambda t: t._starts.__setitem__(1, -0.5), "'b' runs backwards"),
            (lambda t: t._finishes.__setitem__(1, 0.5), "'b' runs backwards"),
            (lambda t: t._starts.__setitem__(1, 0.5), "'b' starts at 0.5 before 'a'"),
        ],
        ids=["short-starts", "extra-label", "decreasing-start", "decreasing-finish", "overlap"],
    )
    def test_detects_corrupt_columns(self, corrupt, message):
        timeline = ResourceTimeline("gpu")
        timeline.reserve(0.0, 1.0, "a")
        timeline.reserve(2.0, 1.0, "b")
        timeline.validate()
        corrupt(timeline)
        with pytest.raises(SimulationError, match=message):
            timeline.validate()
