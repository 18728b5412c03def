"""Multi-replica fleet serving: cache-aware routing, failover, autoscaling.

The cluster layer above :mod:`repro.serving`: a
:class:`~repro.fleet.fleet.FleetRouter` fronts M replica engines with a
pluggable :class:`~repro.fleet.router.RoutingPolicy` (``round_robin``,
``least_loaded``, ``cache_affinity``), injects replica faults from a
:class:`~repro.hardware.faults.FaultSchedule` (crashes fail in-flight
work over to survivors without loss), threshold-autoscales the active pool
(:class:`~repro.fleet.autoscale.AutoscaleConfig`) against diurnal and
bursty arrival traces, and merges per-replica serving reports into one
fleet-wide view.

Quickstart::

    from repro import make_fleet
    from repro.workloads import skewed_serving_workload

    fleet = make_fleet(
        strategy="hybrimoe", cache_ratio=0.25, num_layers=8,
        replicas=2, router="cache_affinity",
    )
    trace = skewed_serving_workload(
        num_requests=8, arrival_rate=2.0, num_profiles=2
    )
    report = fleet.serve_trace(trace)
    print(report.summary())
"""

from repro.fleet.autoscale import AutoscaleConfig, AutoscaleEvent
from repro.fleet.fleet import FleetConfig, FleetReport, FleetRouter, Replica, RoutingDecision
from repro.fleet.router import (
    CacheAffinityPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    available_routers,
    make_router,
)

__all__ = [
    "FleetConfig",
    "FleetRouter",
    "FleetReport",
    "Replica",
    "RoutingDecision",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "CacheAffinityPolicy",
    "available_routers",
    "make_router",
    "AutoscaleConfig",
    "AutoscaleEvent",
]
