"""Replica fault injection: lossless failover and schedule transparency.

Crash instants are not hard-coded: a fault-free probe run of the same
(deterministic) fleet supplies real per-request lifecycle instants, and
each test schedules its crash inside the window it wants to hit —
mid-decode (between first token and finish) or mid-prefill (between
prefill start and first token) of a request served by the doomed
replica. This keeps the tests pinned to the scenario they claim to
cover even if engine timings drift.
"""

import pytest

from repro.engine.factory import make_fleet
from repro.errors import ConfigError, SimulationError
from repro.hardware.faults import Fault, FaultSchedule
from repro.workloads.generator import serving_workload

MODEL = "mixtral"
NUM_LAYERS = 3
MAX_BATCH = 4
VOCAB = 512
ARRIVALS = [0.0, 0.02, 0.04, 0.06, 0.3, 0.32, 0.34, 0.36]


def _fleet(faults=None, replicas=2, router="round_robin"):
    return make_fleet(
        model=MODEL,
        strategy="hybrimoe",
        cache_ratio=0.5,
        num_layers=NUM_LAYERS,
        seed=0,
        max_batch_size=MAX_BATCH,
        replicas=replicas,
        router=router,
        faults=faults,
    )


def _trace():
    return serving_workload(
        arrival_times=ARRIVALS, decode_steps=4, vocab_size=VOCAB, seed=0
    )


@pytest.fixture(scope="module")
def probe():
    """Fault-free reference run: (report, record) with a replica-0 record.

    Fleet runs are deterministic, so these lifecycle instants are exact
    for every fault-free rerun of the same configuration.
    """
    report = _fleet().serve_trace(_trace())
    replica0 = dict(report.per_replica)[0]
    # A replica-0 request that decodes (has a first token and a later
    # finish) — both crash windows of interest exist for it.
    record = next(
        r for r in replica0.requests if r.finish_time > r.first_token_time
    )
    return report, record


def _crash_run(at_time):
    schedule = FaultSchedule([Fault("crash", replica=0, at_time=at_time)])
    return _fleet(faults=schedule).serve_trace(_trace())


def assert_lossless(report, num_requests=len(ARRIVALS)):
    """Every trace request finished exactly once, fleet-wide."""
    assert sorted(r.request_id for r in report.merged.requests) == list(
        range(num_requests)
    )


class TestCrashFailover:
    def test_crash_mid_decode_reroutes_in_flight(self, probe):
        _, record = probe
        crash_at = (record.first_token_time + record.finish_time) / 2
        report = _crash_run(crash_at)

        assert_lossless(report)
        assert report.num_failovers >= 1
        # The probed request was decoding on replica 0 at the crash:
        # its record must carry the failover and finish elsewhere.
        merged = {r.request_id: r for r in report.merged.requests}
        assert merged[record.request_id].num_failovers == 1
        survivors = dict(report.per_replica)
        assert record.request_id in {
            r.request_id for r in survivors[1].requests
        }
        # Replica 0 kept the records of requests it finished pre-crash.
        assert all(
            r.finish_time <= crash_at + 1e-9
            for r in survivors.get(0, type("E", (), {"requests": ()})).requests
        )

    def test_crash_mid_prefill_reroutes_in_flight(self, probe):
        _, record = probe
        crash_at = (record.prefill_start + record.first_token_time) / 2
        report = _crash_run(crash_at)

        assert_lossless(report)
        merged = {r.request_id: r for r in report.merged.requests}
        assert merged[record.request_id].num_failovers == 1
        # Partial prefill died with the replica: the re-routed request
        # restarts from arrival, so its prefill begins after the crash.
        assert merged[record.request_id].prefill_start >= crash_at

    def test_failover_requests_are_rerouted_decisions(self, probe):
        _, record = probe
        crash_at = (record.first_token_time + record.finish_time) / 2
        report = _crash_run(crash_at)
        routed = {}
        for decision in report.decisions:
            routed.setdefault(decision.request_id, []).append(decision.replica)
        # Each failed-over request was routed at least twice, the last
        # time away from the dead replica; each clean one exactly once.
        for request in report.merged.requests:
            hops = routed[request.request_id]
            assert len(hops) == request.num_failovers + 1
            if request.num_failovers:
                assert hops[-1] != 0

    def test_crash_on_drained_replica_never_fires(self, probe):
        fault_free, _ = probe
        # Scheduled far past the fault-free makespan: every replica has
        # drained, nothing observes the fault, reports are identical.
        report = _crash_run(fault_free.merged.last_finish + 100.0)
        assert report.num_failovers == 0
        assert report.merged.requests == fault_free.merged.requests
        assert report.decisions == fault_free.decisions

    def test_all_replicas_crashed_raises(self):
        schedule = FaultSchedule(
            [
                Fault("crash", replica=0, at_time=0.001),
                Fault("crash", replica=1, at_time=0.001),
            ]
        )
        with pytest.raises(SimulationError, match="every fleet replica"):
            _fleet(faults=schedule).serve_trace(_trace())


class TestScheduleTransparency:
    def test_unfired_schedule_is_bit_identical_to_none(self, probe):
        fault_free, _ = probe
        horizon = fault_free.merged.last_finish + 50.0
        schedule = FaultSchedule(
            [
                Fault("crash", replica=1, at_time=horizon),
                Fault("slow", replica=0, at_time=horizon, duration=5.0),
            ]
        )
        report = _fleet(faults=schedule).serve_trace(_trace())
        assert report.merged.requests == fault_free.merged.requests
        assert report.decisions == fault_free.decisions
        assert dict(report.per_replica)[0].requests == dict(
            fault_free.per_replica
        )[0].requests

    def test_slow_window_blacks_replica_out_of_routing(self, probe):
        fault_free, _ = probe
        window = (0.25, fault_free.merged.last_finish + 1.0)
        schedule = FaultSchedule(
            [Fault("slow", 0, at_time=window[0], duration=window[1] - window[0])]
        )
        report = _fleet(faults=schedule).serve_trace(_trace())
        assert_lossless(report)
        assert report.num_failovers == 0  # blackouts shed no work
        for decision in report.decisions:
            if window[0] <= decision.time < window[1]:
                assert decision.replica != 0

    def test_fault_beyond_pool_rejected(self):
        schedule = FaultSchedule([Fault("crash", replica=5, at_time=1.0)])
        with pytest.raises(ConfigError, match="crash fault targets replica 5"):
            _fleet(faults=schedule)


class TestScheduleValidation:
    def test_duplicate_crash_same_instant_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultSchedule(
                [
                    Fault("crash", replica=0, at_time=1.0),
                    Fault("crash", replica=0, at_time=1.0),
                ]
            )

    def test_duplicate_slow_same_instant_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultSchedule(
                [
                    Fault("slow", replica=0, at_time=1.0, duration=1.0),
                    Fault("slow", replica=0, at_time=1.0, duration=2.0),
                ]
            )

    def test_second_crash_on_replica_rejected_even_later(self):
        with pytest.raises(ConfigError, match="more than one scheduled"):
            FaultSchedule(
                [
                    Fault("crash", replica=0, at_time=1.0),
                    Fault("crash", replica=0, at_time=2.0),
                ]
            )

    def test_same_fault_different_replicas_allowed(self):
        schedule = FaultSchedule(
            [
                Fault("crash", replica=0, at_time=1.0),
                Fault("crash", replica=1, at_time=1.0),
            ]
        )
        assert len(schedule) == 2

    def test_crash_inside_slow_window_allowed(self):
        # Documented precedence: the crash wins, the rest of the slow
        # window is moot. Scheduling both is the fail-slow-then-stop
        # sequence and must construct fine.
        schedule = FaultSchedule(
            [
                Fault("slow", replica=0, at_time=1.0, duration=5.0),
                Fault("crash", replica=0, at_time=3.0),
            ]
        )
        assert len(schedule.crashes()) == 1
