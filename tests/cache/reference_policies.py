"""Plain-form eviction policies and a seeded operation history.

Each reference states its policy's ranking as the one ``min`` it means,
over a dict per concept and nothing derived. The policies in
``repro.cache`` must pick the same victim after every operation of any
history (``test_manager.py``: the seeded history below, also pinned by
``GOLDEN_EVICTIONS``; ``test_properties.py``: hypothesis histories).
They satisfy the same contract, so an ``ExpertCache`` runs on one.
"""

import numpy as np

from repro.cache.manager import ExpertCache

OPS = (
    "insert",
    "access",
    "observe_scores",
    "would_admit",
    "insert_if_better",
    "lock",
    "unlock_all",
)


class ReferenceLRU:
    def __init__(self):
        self.last_used = {}

    def on_insert(self, key, now):
        self.last_used[key] = now

    on_access = on_insert

    def on_scores(self, layer, scores, now):
        pass

    def forget(self, key):
        self.last_used.pop(key, None)

    def rank(self, key):
        return (self.last_used[key], key)

    def victim(self, locked):
        return min((k for k in self.last_used if k not in locked), key=self.rank)

    def priority(self, key):
        return float(self.last_used.get(key, -1))


class ReferenceLFU(ReferenceLRU):
    def __init__(self):
        super().__init__()
        self.counts = {}

    def on_insert(self, key, now):
        self.counts.setdefault(key, 0)
        self.last_used[key] = now

    def on_access(self, key, now):
        self.counts[key] += 1
        self.last_used[key] = now

    def rank(self, key):
        return (self.counts[key], self.last_used[key], key)

    def priority(self, key):
        return float(self.counts.get(key, 0))


class ReferenceMRS(ReferenceLRU):
    """Eq. (3) one key at a time, as written before it was vectorised."""

    def __init__(self, alpha=0.7, top_p=4):
        super().__init__()
        self.alpha, self.top_p = alpha, top_p
        self.scores = {}

    def on_scores(self, layer, scores, now):
        scores = np.asarray(scores, dtype=np.float64)
        p = min(self.top_p, scores.size)
        top = set(int(i) for i in np.argsort(-scores, kind="stable")[:p])
        for expert in range(scores.size):
            previous = self.scores.get((layer, expert), 0.0)
            contribution = float(scores[expert]) if expert in top else 0.0
            self.scores[(layer, expert)] = (
                self.alpha * contribution + (1.0 - self.alpha) * previous
            )

    def rank(self, key):
        return (self.scores.get(key, 0.0), self.last_used[key], key)

    def priority(self, key):
        return self.scores.get(key, 0.0)


REFERENCES = {"lru": ReferenceLRU, "lfu": ReferenceLFU, "mrs": ReferenceMRS}


def reference_cache(capacity, name, **kwargs):
    return ExpertCache(capacity, REFERENCES[name](**kwargs))


def seeded_history(seed, length=2000, layers=3, experts=8):
    """``(op, key, scores)`` triples; every op draws all three."""
    rng = np.random.default_rng(seed)
    for _ in range(length):
        op = OPS[int(rng.integers(len(OPS)))]
        key = (int(rng.integers(layers)), int(rng.integers(experts)))
        yield op, key, rng.random(experts)


def apply(cache, op, key, scores):
    """Run one history operation; returns what the cache answered."""
    if op == "observe_scores":
        return cache.observe_scores(key[0], scores)
    if op == "would_admit":
        return cache.would_admit(key, margin=0.25 * (key[1] % 2))
    if op == "lock":
        return cache.lock([key])
    if op == "unlock_all":
        return cache.unlock_all()
    return getattr(cache, op)(key)
