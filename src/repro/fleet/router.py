"""Pluggable fleet routing policies.

A policy picks, per arriving request, one replica among the currently
*routable* ones (alive, active, outside any slow-fault window). All
tie-breaks resolve by replica id, so routing is fully deterministic —
the hypothesis property suite replays runs and pins this.

Policies:

- ``round_robin`` — rotate through the routable replicas; fault-free
  assignment counts differ by at most one.
- ``least_loaded`` — fewest in-flight requests wins (id breaks ties).
- ``cache_affinity`` — HybriMoE's insight one level up: score each
  replica by how many of the request's predicted ``(layer, expert)``
  token routings (:func:`~repro.routing.statistics.predicted_routing_profile`)
  are already resident in that replica's live expert cache, measured
  as *excess over chance*, and send the request where its experts are
  hottest among the near-least-loaded replicas (see the class
  docstring for why both the excess normalisation and the bounded
  load slack are load-bearing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.serving.request import Request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.fleet.fleet import FleetRouter, Replica

__all__ = [
    "RoutingPolicy",
    "RoundRobinPolicy",
    "LeastLoadedPolicy",
    "CacheAffinityPolicy",
    "available_routers",
    "make_router",
]


class RoutingPolicy:
    """Base class: choose a replica for each arriving request."""

    name = "base"

    def reset(self) -> None:
        """Clear per-run state (called at the start of every serve)."""

    def choose(
        self,
        request: Request,
        candidates: "list[Replica]",
        fleet: "FleetRouter",
    ) -> "Replica":
        """Pick one of ``candidates`` (non-empty, sorted by replica id)."""
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Rotate assignments across the routable replicas.

    The cursor lives in replica-id space: each pick takes the first
    routable replica at or after the cursor (cyclically) and advances
    past it. With a stable candidate set this is a pure rotation —
    assignment counts differ by at most one — and when replicas die or
    black out the rotation simply skips them.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def choose(self, request, candidates, fleet):
        chosen = min(
            candidates,
            key=lambda rep: (
                (rep.replica_id - self._cursor) % fleet.config.replicas,
                rep.replica_id,
            ),
        )
        self._cursor = (chosen.replica_id + 1) % fleet.config.replicas
        return chosen


class LeastLoadedPolicy(RoutingPolicy):
    """Send the request to the replica with the fewest in-flight requests."""

    name = "least_loaded"

    def choose(self, request, candidates, fleet):
        return min(candidates, key=lambda rep: (rep.load, rep.replica_id))


class CacheAffinityPolicy(RoutingPolicy):
    """Route to the replica whose expert cache is hottest for the request.

    The request's predicted routing profile (per-``(layer, expert)``
    prompt-token loads, memoized per distinct prompt by the fleet) is
    scored against each candidate's **live** per-layer cache residency
    as *excess overlap over chance*:

    ``score(replica) = Σ_layer ( Σ_{e ∈ resident(l)} profile[l, e]
    − |resident(l)| / num_experts · Σ_e profile[l, e] )``

    i.e. how many of the request's predicted expert routings the
    replica already holds, **minus** what a random cache of the same
    occupancy would hold. The subtraction is what makes the score a
    usable routing signal: distinct hot profiles still share experts,
    so under *raw* overlap a warm replica outscores a cold one for
    every profile and the whole stream funnels onto whichever replica
    warmed up first. Excess-over-chance instead scores a
    wrong-profile cache *negative*, an empty cache zero and a
    right-profile cache positive — so two profiles split across two
    cold replicas from the very first requests, with no load pressure
    needed to break the symmetry.

    Three rules turn that score into a routing key, each one pulling
    real weight:

    1. **Load guard** — candidates more than ``load_slack`` in-flight
       requests above the least-loaded candidate are excluded. A pure
       score-first rule lets one hot profile pile arbitrarily deep; a
       strict load-first rule degenerates to least-loaded exactly when
       caching matters most (under queueing, loads rarely tie); and
       under a drain-dominated burst, a count *imbalance* costs more
       makespan than warm caches win back. The one-request slack keeps
       assignment counts balanced while letting affinity — not
       arrival parity — decide placement.
    2. **Indifference margin** — the score is normalised by the
       profile's total token mass and bucketed at ``score_margin``
       resolution; scores in the same bucket tie. Chance-level
       overlap (every resident expert is as likely to serve any other
       profile) is noise, and letting its sign decide placement makes
       routing a coin flip.
    3. **Fewest assignments breaks score ties** — among
       score-equivalent candidates the one this policy has routed the
       fewest requests at wins (then load, then replica id). This is
       the symmetry breaker that bootstraps specialisation: replicas
       start with *identical* caches (the engines' deterministic
       initial placement), so the first requests tie on score and
       spread round-robin-fashion — profile A seeds replica 0,
       profile B seeds replica 1 — and from then on each profile's
       own positive score keeps it pinned to the replica it warmed.
       Without it, every score tie falls through to the lowest
       replica id and the whole stream funnels onto replica 0.
    """

    name = "cache_affinity"

    #: Load slack: candidates within this many in-flight requests of
    #: the least-loaded candidate compete on affinity score.
    load_slack = 1
    #: Resolution (fraction of the profile's token mass) below which
    #: two excess-overlap scores are considered indistinguishable.
    score_margin = 0.02

    def __init__(self) -> None:
        self._assigned: dict[int, int] = {}

    def reset(self) -> None:
        self._assigned = {}

    def choose(self, request, candidates, fleet):
        profile = fleet.routing_profile(request)
        floor = min(rep.load for rep in candidates)
        near = [rep for rep in candidates if rep.load <= floor + self.load_slack]
        chosen = min(
            near,
            key=lambda rep: (
                -self.score_bucket(profile, rep),
                self._assigned.get(rep.replica_id, 0),
                rep.load,
                rep.replica_id,
            ),
        )
        self._assigned[chosen.replica_id] = self._assigned.get(chosen.replica_id, 0) + 1
        return chosen

    def score_bucket(self, profile: np.ndarray, replica: "Replica") -> int:
        """Quantised relative excess score (see :meth:`score`)."""
        return int(np.floor(self.score(profile, replica) / self.score_margin))

    @staticmethod
    def score(profile: np.ndarray, replica: "Replica") -> float:
        """Relative excess predicted-routing overlap of a live cache.

        Positive: the cache holds more of the request's predicted
        experts than a random cache of equal occupancy (profile-warm).
        Zero: empty cache / chance-level overlap. Negative: warm for
        *other* profiles. Normalised by the profile's total token
        mass, so the value is comparable across prompts (bounded by
        ``[-1, 1]``).
        """
        cache = replica.engine.runtime.cache
        num_experts = profile.shape[1]
        excess = 0.0
        mass = 0.0
        for layer in range(profile.shape[0]):
            layer_mass = float(profile[layer].sum())
            mass += layer_mass
            resident = cache.cached_experts_of_layer(layer)
            if resident:
                overlap = float(profile[layer, sorted(resident)].sum())
                excess += overlap - layer_mass * len(resident) / num_experts
        return excess / mass if mass else 0.0


_ROUTERS: dict[str, type[RoutingPolicy]] = {
    "round_robin": RoundRobinPolicy,
    "least_loaded": LeastLoadedPolicy,
    "cache_affinity": CacheAffinityPolicy,
}


def available_routers() -> list[str]:
    """Policy names accepted by :func:`make_router` / ``make_fleet``."""
    return sorted(_ROUTERS)


def make_router(name: str) -> RoutingPolicy:
    """Instantiate a routing policy by short name."""
    try:
        cls = _ROUTERS[name]
    except KeyError:
        known = ", ".join(available_routers())
        raise ConfigError(f"unknown router {name!r} (known: {known})") from None
    return cls()
