"""Property tests for fleet routing.

Driven against real fleets over hypothesis-generated traces (clustered
arrivals with many exact ties, the worst case for tie-breaking):

1. every submitted request finishes exactly once, fleet-wide;
2. per-replica batch occupancy never exceeds ``max_batch_size``;
3. fault-free ``round_robin`` assignment counts differ by at most one;
4. ``least_loaded`` never picks a replica strictly more loaded than
   another candidate (checked against the load snapshot each
   :class:`~repro.fleet.fleet.RoutingDecision` recorded);
5. routing is deterministic: two fresh fleets over the same trace make
   identical decisions and produce identical merged reports.

Plus engine-free unit checks of the policy tie-break rules on stub
replicas (cheap enough to enumerate exhaustively).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.factory import make_fleet
from repro.fleet import FleetConfig
from repro.fleet.router import (
    LeastLoadedPolicy,
    RoundRobinPolicy,
    available_routers,
    make_router,
)
from repro.workloads.generator import serving_workload

MODEL = "mixtral"
NUM_LAYERS = 3
MAX_BATCH = 3
VOCAB = 512


def _fleet(replicas, router):
    return make_fleet(
        model=MODEL,
        strategy="hybrimoe",
        cache_ratio=0.5,
        num_layers=NUM_LAYERS,
        seed=0,
        max_batch_size=MAX_BATCH,
        replicas=replicas,
        router=router,
    )


def _trace(arrival_times, seed):
    return serving_workload(
        arrival_times=arrival_times,
        decode_steps=3,
        vocab_size=VOCAB,
        seed=seed,
    )


@st.composite
def fleet_case(draw):
    """(replicas, router, clustered arrival trace, workload seed)."""
    replicas = draw(st.integers(min_value=1, max_value=3))
    router = draw(st.sampled_from(available_routers()))
    n = draw(st.integers(min_value=1, max_value=8))
    # Integer instants scaled down: many exact arrival ties, bursts
    # denser than the batch ceiling, and idle gaps — the regimes where
    # tie-breaking and the idle-hold rule actually decide something.
    ticks = sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    times = [t * 0.05 for t in ticks]
    seed = draw(st.integers(min_value=0, max_value=3))
    return replicas, router, times, seed


class TestFleetProperties:
    @settings(max_examples=12, deadline=None)
    @given(case=fleet_case())
    def test_exactly_once_occupancy_and_snapshots(self, case):
        replicas, router, times, seed = case
        trace = _trace(times, seed)
        report = _fleet(replicas, router).serve_trace(trace)

        # Exactly once: the merged report holds every trace request id
        # one single time (ServingReport.merged rejects duplicates, so
        # id multiplicity is already impossible; coverage is not).
        assert sorted(r.request_id for r in report.merged.requests) == list(
            range(len(trace))
        )

        # Occupancy cap, fleet-wide, at the per-session high-water mark.
        assert all(
            peak <= MAX_BATCH for peak in report.peak_occupancy.values()
        )

        # One routing decision per request, each choosing a snapshot
        # candidate; least_loaded must pick a minimum-load candidate.
        assert sorted(d.request_id for d in report.decisions) == list(
            range(len(trace))
        )
        for decision in report.decisions:
            loads = dict(decision.loads)
            assert decision.replica in loads
            if router == "least_loaded":
                assert loads[decision.replica] == min(loads.values())

        if router == "round_robin":
            counts = report.assignment_counts()
            filled = [counts.get(i, 0) for i in range(replicas)]
            assert max(filled) - min(filled) <= 1

    @settings(max_examples=8, deadline=None)
    @given(case=fleet_case())
    def test_routing_is_deterministic(self, case):
        replicas, router, times, seed = case
        first = _fleet(replicas, router).serve_trace(_trace(times, seed))
        second = _fleet(replicas, router).serve_trace(_trace(times, seed))
        assert first.decisions == second.decisions
        assert first.assignment_counts() == second.assignment_counts()
        assert [r for r, _ in first.per_replica] == [
            r for r, _ in second.per_replica
        ]
        assert first.merged.requests == second.merged.requests


class _StubReplica:
    def __init__(self, replica_id, load):
        self.replica_id = replica_id
        self.load = load


class _StubFleet:
    def __init__(self, num_replicas):
        self.config = FleetConfig(replicas=num_replicas)


class TestPolicyUnits:
    """Engine-free checks of the pure tie-break arithmetic."""

    def test_round_robin_rotates_and_skips_missing(self):
        policy = RoundRobinPolicy()
        fleet = _StubFleet(3)
        full = [_StubReplica(i, 0) for i in range(3)]
        order = [policy.choose(None, full, fleet).replica_id for _ in range(6)]
        assert order == [0, 1, 2, 0, 1, 2]
        # Replica 1 drops out (crash/blackout): the rotation skips it
        # without double-serving its neighbours.
        partial = [full[0], full[2]]
        order = [policy.choose(None, partial, fleet).replica_id for _ in range(4)]
        assert order == [0, 2, 0, 2]

    def test_round_robin_reset_restarts_rotation(self):
        policy = RoundRobinPolicy()
        fleet = _StubFleet(2)
        replicas = [_StubReplica(i, 0) for i in range(2)]
        assert policy.choose(None, replicas, fleet).replica_id == 0
        policy.reset()
        assert policy.choose(None, replicas, fleet).replica_id == 0

    def test_least_loaded_breaks_ties_by_id(self):
        policy = LeastLoadedPolicy()
        fleet = _StubFleet(3)
        replicas = [_StubReplica(0, 2), _StubReplica(1, 1), _StubReplica(2, 1)]
        assert policy.choose(None, replicas, fleet).replica_id == 1

    def test_make_router_round_trips_every_name(self):
        for name in available_routers():
            assert make_router(name).name == name

    def test_make_router_rejects_unknown(self):
        import pytest

        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown router"):
            make_router("random")
