"""Threshold autoscaling and cache-affinity specialisation behaviour.

Autoscaling is exercised against the bursty arrival process it is
sized for (flash crowds on a quiet baseline); cache-affinity routing
against the skewed hot-profile trace it is designed for. Fleet runs
are deterministic, so behavioural assertions (scale-up on the burst,
one replica per profile, warm-cache hit-rate wins) are exact replays,
not statistical hopes.
"""

import pytest

from repro.engine.factory import make_fleet
from repro.errors import ConfigError
from repro.fleet.autoscale import AutoscaleConfig
from repro.workloads.generator import (
    bursty_arrivals,
    poisson_arrivals,
    skewed_serving_workload,
    serving_workload,
)

MODEL = "mixtral"
VOCAB = 512


def _fleet(replicas=3, autoscale=None, router="round_robin", **kwargs):
    kwargs.setdefault("model", MODEL)
    kwargs.setdefault("strategy", "hybrimoe")
    kwargs.setdefault("cache_ratio", 0.5)
    kwargs.setdefault("num_layers", 3)
    kwargs.setdefault("max_batch_size", 2)
    return make_fleet(
        seed=0,
        replicas=replicas,
        router=router,
        autoscale=autoscale,
        **kwargs,
    )


class TestAutoscaling:
    def test_burst_scales_up_then_quiet_scales_down(self):
        times = bursty_arrivals(
            24,
            base_rate=0.5,
            burst_rate=40.0,
            burst_every=30.0,
            burst_duration=2.0,
            seed=0,
        )
        trace = serving_workload(
            arrival_times=list(times), decode_steps=4, vocab_size=VOCAB, seed=0
        )
        config = AutoscaleConfig(
            min_replicas=1,
            max_replicas=3,
            high_watermark=2.0,
            low_watermark=0.5,
        )
        report = _fleet(autoscale=config).serve_trace(trace)

        assert sorted(r.request_id for r in report.merged.requests) == list(
            range(24)
        )
        actions = [e.action for e in report.autoscale_events]
        assert "scale_up" in actions
        assert actions[0] == "scale_up"  # the burst hits before any lull
        up = next(e for e in report.autoscale_events if e.action == "scale_up")
        assert up.load >= config.high_watermark
        for event in report.autoscale_events:
            if event.action == "scale_down":
                assert event.load <= config.low_watermark

        # Replay the event log: the active count must stay in bounds.
        active = config.min_replicas
        for event in report.autoscale_events:
            active += 1 if event.action == "scale_up" else -1
            assert config.min_replicas <= active <= config.max_replicas

        # Standby replicas take no requests outside an active window.
        # Scale events fire at routing points *before* the route at the
        # same instant, so replaying events with time <= decision time
        # reconstructs the active set each decision saw.
        for decision in report.decisions:
            active_set = set(range(config.min_replicas))
            for event in report.autoscale_events:
                if event.time > decision.time:
                    break
                if event.action == "scale_up":
                    active_set.add(event.replica)
                else:
                    active_set.discard(event.replica)
            assert decision.replica in active_set

    def test_cooldown_spaces_scale_events(self):
        times = bursty_arrivals(
            24,
            base_rate=0.5,
            burst_rate=40.0,
            burst_every=30.0,
            burst_duration=2.0,
            seed=0,
        )
        trace = serving_workload(
            arrival_times=list(times), decode_steps=4, vocab_size=VOCAB, seed=0
        )
        config = AutoscaleConfig(
            min_replicas=1,
            max_replicas=3,
            high_watermark=2.0,
            low_watermark=0.5,
            cooldown=0.5,
        )
        report = _fleet(autoscale=config).serve_trace(trace)
        events = report.autoscale_events
        for earlier, later in zip(events, events[1:]):
            assert later.time - earlier.time >= config.cooldown

    def test_standby_replicas_are_never_built_without_load(self):
        trace = serving_workload(
            arrival_times=[0.0, 5.0, 10.0],
            decode_steps=2,
            vocab_size=VOCAB,
            seed=0,
        )
        fleet = _fleet(
            autoscale=AutoscaleConfig(
                min_replicas=1,
                max_replicas=3,
                high_watermark=50.0,  # unreachable: never scales up
                low_watermark=0.0,
            )
        )
        report = fleet.serve_trace(trace)
        assert report.autoscale_events == []
        assert fleet.replicas[0].built
        assert not fleet.replicas[1].built  # lazy: standby engine unbuilt
        assert not fleet.replicas[2].built
        assert len(report.per_replica) == 1

    def test_autoscale_beyond_pool_rejected(self):
        with pytest.raises(ConfigError, match="exceeds the replica pool"):
            _fleet(
                replicas=2,
                autoscale=AutoscaleConfig(min_replicas=1, max_replicas=3),
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(min_replicas=0), "min_replicas"),
            (dict(min_replicas=3, max_replicas=2), "max_replicas"),
            (dict(high_watermark=1.0, low_watermark=1.0), "low_watermark"),
            (dict(cooldown=-1.0), "cooldown"),
            (dict(cooldown=float("nan")), "cooldown"),
        ],
    )
    def test_config_validation(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            AutoscaleConfig(**kwargs)


class TestCacheAffinityBehaviour:
    """The skewed-trace payoff the fleet benchmark (``bench_fleet.py``) gates on."""

    @pytest.fixture(scope="class")
    def skewed_runs(self):
        """Warm-then-measure runs of both routers on identical fleets."""
        results = {}
        for router in ("round_robin", "cache_affinity"):
            fleet = _fleet(
                replicas=2,
                router=router,
                # The benchmark's skewed scenario: a 64-expert model
                # whose 8-token profiles activate sparse, distinct
                # expert sets, on the recency cache that preserves them
                # (mixtral's 8 experts are all hot for every profile).
                model="deepseek",
                strategy="ondemand",
                cache_ratio=0.45,
                num_layers=6,
                max_batch_size=4,
            )
            warm = skewed_serving_workload(
                num_requests=24,
                arrival_rate=3.0,
                num_profiles=2,
                decode_steps=4,
                vocab_size=VOCAB,
                prompt_length=8,
                seed=0,
            )
            fleet.serve_trace(warm)
            measure = skewed_serving_workload(
                arrival_times=list(poisson_arrivals(48, 250.0, seed=1000)),
                num_profiles=2,
                decode_steps=4,
                vocab_size=VOCAB,
                prompt_length=8,
                seed=0,
            )
            results[router] = (fleet, measure, fleet.serve_trace(measure))
        return results

    def test_profiles_specialise_onto_replicas(self, skewed_runs):
        fleet, measure, report = skewed_runs["cache_affinity"]
        by_profile: dict[bytes, list[int]] = {}
        replica_of = {d.request_id: d.replica for d in report.decisions}
        for request_id, entry in enumerate(measure):
            key = entry.workload.prompt_tokens.tobytes()
            by_profile.setdefault(key, []).append(replica_of[request_id])
        assert len(by_profile) == 2
        majorities = []
        for assignments in by_profile.values():
            counts = {r: assignments.count(r) for r in set(assignments)}
            majority = max(counts, key=counts.get)
            # Each profile keeps a home-replica majority. Perfect
            # pinning is impossible by design: the policy's load guard
            # spills a request to the other replica whenever its home
            # is more than one request deeper — under a saturating
            # burst that happens regularly (and is what keeps the
            # merged makespan from being lost to count imbalance).
            assert counts[majority] / len(assignments) > 0.55
            majorities.append(majority)
        assert sorted(majorities) == [0, 1]  # distinct homes, not a funnel

    def test_affinity_beats_round_robin_hit_rate(self, skewed_runs):
        _, _, affinity = skewed_runs["cache_affinity"]
        _, _, round_robin = skewed_runs["round_robin"]
        assert affinity.merged.hit_rate > round_robin.merged.hit_rate

    def test_shared_origin_keeps_one_time_base(self, skewed_runs):
        fleet, _, report = skewed_runs["cache_affinity"]
        # Second serve on a warm fleet: every record is anchored at the
        # shared fleet origin, so no request can appear to arrive
        # before it, and the merged makespan stays trace-sized instead
        # of clock-drift-sized.
        origin = report.merged.first_arrival
        assert all(r.arrival_time >= origin for r in report.merged.requests)
        spans = [rep.makespan for _, rep in report.per_replica]
        assert max(spans) <= report.merged.makespan + 1e-9
        assert report.merged.makespan < 10.0  # not inflated by drift
