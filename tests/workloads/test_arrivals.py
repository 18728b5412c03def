"""Arrival processes: Poisson determinism, trace validation, serving traces."""

import contextlib
import signal

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.scenarios import WorkloadRecipe
from repro.workloads.generator import (
    DEFAULT_PRIORITY,
    ArrivedWorkload,
    WorkloadSpec,
    bursty_arrivals,
    chat_serving_workload,
    decode_workload,
    diurnal_arrivals,
    poisson_arrivals,
    priority_assignment,
    serving_workload,
    skewed_serving_workload,
    trace_arrivals,
)


class TestPoissonArrivals:
    def test_deterministic_under_seed(self):
        np.testing.assert_array_equal(
            poisson_arrivals(10, rate=4.0, seed=3), poisson_arrivals(10, rate=4.0, seed=3)
        )

    def test_seed_changes_trace(self):
        assert not np.array_equal(
            poisson_arrivals(10, rate=4.0, seed=0), poisson_arrivals(10, rate=4.0, seed=1)
        )

    def test_monotone_nonnegative(self):
        times = poisson_arrivals(50, rate=2.0, seed=0)
        assert times[0] >= 0.0
        assert np.all(np.diff(times) >= 0.0)

    def test_mean_gap_tracks_rate(self):
        times = poisson_arrivals(4000, rate=5.0, seed=0)
        mean_gap = float(np.diff(times).mean())
        assert mean_gap == pytest.approx(1.0 / 5.0, rel=0.1)

    def test_start_offset(self):
        assert poisson_arrivals(5, rate=1.0, seed=0, start=10.0)[0] >= 10.0

    @pytest.mark.parametrize("kwargs", [
        {"num_requests": 0, "rate": 1.0},
        {"num_requests": 4, "rate": 0.0},
        {"num_requests": 4, "rate": 1.0, "start": -1.0},
    ])
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ConfigError):
            poisson_arrivals(**kwargs)


class TestTraceArrivals:
    def test_valid_trace_passthrough(self):
        np.testing.assert_array_equal(
            trace_arrivals([0.0, 0.5, 0.5, 2.0]), np.array([0.0, 0.5, 0.5, 2.0])
        )

    @pytest.mark.parametrize("trace", [[], [-1.0, 0.0], [1.0, 0.5]])
    def test_invalid_traces(self, trace):
        with pytest.raises(ConfigError):
            trace_arrivals(trace)


class TestServingWorkload:
    def test_structure_and_cycling(self):
        entries = serving_workload(num_requests=5, arrival_rate=2.0, decode_steps=7, seed=0)
        assert len(entries) == 5
        assert all(isinstance(e, ArrivedWorkload) for e in entries)
        assert all(isinstance(e.workload, WorkloadSpec) for e in entries)
        assert [e.workload.dataset for e in entries] == [
            "mtbench", "vicuna", "chatgpt-prompts", "mtbench", "vicuna",
        ]
        assert all(e.workload.decode_steps == 7 for e in entries)
        times = [e.arrival_time for e in entries]
        assert times == sorted(times)

    def test_explicit_trace(self):
        entries = serving_workload(
            num_requests=3, arrival_times=[0.0, 1.0, 4.0], decode_steps=2
        )
        assert [e.arrival_time for e in entries] == [0.0, 1.0, 4.0]

    def test_exactly_one_arrival_source(self):
        with pytest.raises(ConfigError):
            serving_workload(num_requests=2)
        with pytest.raises(ConfigError):
            serving_workload(
                num_requests=2, arrival_rate=1.0, arrival_times=[0.0, 1.0]
            )

    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            serving_workload(num_requests=3, arrival_times=[0.0, 1.0])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ConfigError):
            serving_workload(num_requests=2, arrival_rate=1.0, datasets=("nope",))

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigError):
            ArrivedWorkload(
                arrival_time=-0.5,
                workload=WorkloadSpec(
                    kind="decode",
                    dataset="mtbench",
                    prompt_tokens=np.arange(4),
                    decode_steps=2,
                ),
            )


class TestPriorityAssignment:
    def test_default_is_single_class(self):
        assert priority_assignment(5, None) == [DEFAULT_PRIORITY] * 5

    def test_deterministic_under_seed(self):
        mix = {"interactive": 0.3, "batch": 0.7}
        assert priority_assignment(50, mix, seed=1) == priority_assignment(
            50, mix, seed=1
        )

    def test_mix_fractions_tracked(self):
        mix = {"interactive": 0.25, "batch": 0.75}
        classes = priority_assignment(4000, mix, seed=0)
        fraction = classes.count("interactive") / len(classes)
        assert fraction == pytest.approx(0.25, abs=0.03)

    def test_degenerate_mix(self):
        assert priority_assignment(4, {"interactive": 1.0}) == ["interactive"] * 4

    @pytest.mark.parametrize(
        "mix",
        [
            {},
            {"urgent": 1.0},
            {"interactive": 0.5, "batch": 0.6},
            {"interactive": -0.5, "batch": 1.5},
            {"interactive": float("nan"), "batch": 1.0},
            {"interactive": float("nan")},
        ],
    )
    def test_invalid_mix_rejected(self, mix):
        with pytest.raises(ConfigError):
            priority_assignment(4, mix)

    def test_serving_workload_stamps_classes_and_deadlines(self):
        entries = serving_workload(
            num_requests=40,
            arrival_rate=4.0,
            decode_steps=2,
            seed=0,
            priority_mix={"interactive": 0.5, "batch": 0.5},
            class_deadlines={"interactive": 0.25},
        )
        classes = {e.priority for e in entries}
        assert classes == {"interactive", "batch"}
        for entry in entries:
            if entry.priority == "interactive":
                assert entry.tbt_deadline == 0.25
            else:
                assert entry.tbt_deadline is None

    def test_unknown_deadline_class_rejected(self):
        with pytest.raises(ConfigError):
            serving_workload(
                num_requests=2,
                arrival_rate=1.0,
                class_deadlines={"urgent": 0.1},
            )

    @pytest.mark.parametrize("deadline", [0.0, float("nan")])
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(ConfigError, match="tbt_deadline must be positive"):
            ArrivedWorkload(
                arrival_time=0.0,
                workload=WorkloadSpec(
                    kind="decode",
                    dataset="mtbench",
                    prompt_tokens=np.arange(4),
                    decode_steps=2,
                ),
                tbt_deadline=deadline,
            )

    def test_nan_class_deadline_rejected(self):
        """A NaN deadline would make every request of its class miss."""
        with pytest.raises(ConfigError, match="tbt_deadline must be positive"):
            serving_workload(
                num_requests=4,
                arrival_rate=1.0,
                priority_mix={"interactive": 1.0},
                class_deadlines={"interactive": float("nan")},
            )


class TestChatServingWorkload:
    def _sessions(self, entries):
        """Group entries back into sessions by matching prompt prefixes."""
        from collections import defaultdict

        sessions = defaultdict(list)
        for entry in sorted(entries, key=lambda e: len(e.workload.prompt_tokens)):
            for key, turns_so_far in sessions.items():
                last = turns_so_far[-1].workload.prompt_tokens
                current = entry.workload.prompt_tokens
                if len(current) > len(last) and np.array_equal(
                    current[: len(last)], last
                ):
                    turns_so_far.append(entry)
                    break
            else:
                sessions[len(sessions)] = [entry]
        return sessions

    def test_turn_count_and_global_sort(self):
        entries = chat_serving_workload(num_sessions=3, turns_per_session=4, seed=0)
        assert len(entries) == 12
        arrivals = [e.arrival_time for e in entries]
        assert arrivals == sorted(arrivals)

    def test_turns_share_full_prompt_prefix(self):
        entries = chat_serving_workload(num_sessions=2, turns_per_session=3, seed=0)
        sessions = self._sessions(entries)
        assert len(sessions) == 2
        assert all(len(turns) == 3 for turns in sessions.values())

    def test_context_grows_by_one_exchange_per_turn(self):
        entries = chat_serving_workload(
            num_sessions=1,
            turns_per_session=3,
            user_tokens=5,
            decode_steps=4,
            seed=0,
        )
        lengths = sorted(len(e.workload.prompt_tokens) for e in entries)
        assert lengths[1] - lengths[0] == 9  # decode_steps + user_tokens
        assert lengths[2] - lengths[1] == 9

    def test_deterministic_under_seed(self):
        a = chat_serving_workload(num_sessions=2, seed=3)
        b = chat_serving_workload(num_sessions=2, seed=3)
        assert [e.arrival_time for e in a] == [e.arrival_time for e in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(
                x.workload.prompt_tokens, y.workload.prompt_tokens
            )

    def test_seed_changes_trace(self):
        a = chat_serving_workload(num_sessions=2, seed=0)
        b = chat_serving_workload(num_sessions=2, seed=1)
        assert [e.arrival_time for e in a] != [e.arrival_time for e in b]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_sessions": 0},
            {"turns_per_session": 0},
            {"think_time_s": 0.0},
            {"user_tokens": 0},
            {"decode_steps": -1},
            {"dataset": "nope"},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ConfigError):
            chat_serving_workload(**kwargs)


@contextlib.contextmanager
def _bounded(seconds: float = 5.0):
    """Fail a call that would loop forever instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


NAN, INF = float("nan"), float("inf")
#: A positive rate whose exponential gaps overflow to inf.
UNDERFLOW = 1e-320


class TestNonFiniteArrivalInputs:
    """NaN / inf rates, periods and instants are one-line ConfigErrors."""

    @staticmethod
    def _rejected(build, match=None):
        with _bounded(), pytest.raises(ConfigError, match=match) as err:
            build()
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("rate", [NAN, INF])
    def test_poisson_rate(self, rate):
        self._rejected(lambda: poisson_arrivals(4, rate), "positive and finite")

    @pytest.mark.parametrize("start", [NAN, INF])
    def test_poisson_start(self, start):
        self._rejected(lambda: poisson_arrivals(4, 1.0, start=start), "start")

    @pytest.mark.parametrize("rate", [NAN, INF, UNDERFLOW])
    def test_serving_workload_rate(self, rate):
        self._rejected(lambda: serving_workload(num_requests=3, arrival_rate=rate))

    @pytest.mark.parametrize("rate", [NAN, INF, UNDERFLOW])
    def test_skewed_workload_rate(self, rate):
        self._rejected(lambda: skewed_serving_workload(num_requests=3, arrival_rate=rate))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"session_rate": NAN},
            {"session_rate": UNDERFLOW},
            {"think_time_s": NAN},
            {"think_time_s": INF},
        ],
    )
    def test_chat_workload(self, kwargs):
        self._rejected(lambda: chat_serving_workload(num_sessions=2, **kwargs))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": NAN, "peak_rate": 2.0},
            {"base_rate": 1.0, "peak_rate": NAN},
            {"base_rate": 1.0, "peak_rate": INF},
            {"base_rate": 1.0, "peak_rate": 2.0, "period": NAN},
            {"base_rate": 1.0, "peak_rate": 2.0, "period": INF},
            {"base_rate": UNDERFLOW, "peak_rate": UNDERFLOW},
        ],
    )
    def test_diurnal(self, kwargs):
        self._rejected(lambda: diurnal_arrivals(3, **kwargs))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": NAN, "burst_rate": 2.0},
            {"base_rate": 1.0, "burst_rate": INF},
            {"base_rate": 1.0, "burst_rate": 2.0, "burst_duration": NAN},
        ],
    )
    def test_bursty(self, kwargs):
        self._rejected(lambda: bursty_arrivals(3, **kwargs))

    def test_diurnal_recipe(self):
        self._rejected(
            lambda: WorkloadRecipe(
                "diurnal", {"num_requests": 2, "base_rate": NAN, "peak_rate": 2.0}
            )
        )

    @pytest.mark.parametrize("instant", [NAN, INF])
    def test_explicit_trace(self, instant):
        self._rejected(
            lambda: serving_workload(arrival_times=[0.0, instant]), "non-negative and finite"
        )

    @pytest.mark.parametrize("instant", [NAN, INF])
    def test_arrived_workload(self, instant):
        workload = decode_workload(1)
        self._rejected(
            lambda: ArrivedWorkload(arrival_time=instant, workload=workload),
            "non-negative and finite",
        )
