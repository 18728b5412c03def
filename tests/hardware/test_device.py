"""Resource timeline invariants."""

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
    def test_detects_bisection_arrays_out_of_sync(self):
        for corrupt in (
            lambda t: t._starts.pop(),
            lambda t: t._finishes.__setitem__(0, 0.25),
        ):
            timeline = ResourceTimeline("gpu")
            timeline.reserve(0.0, 1.0, "a")
            timeline.reserve(2.0, 1.0, "b")
            timeline.validate()
            corrupt(timeline)
            with pytest.raises(SimulationError, match="bisection arrays"):
                timeline.validate()
