"""Workload construction for the evaluation harness.

Besides the paper's single-generation prefill/decode workloads, this
module builds **serving traces**: request streams with arrival times
drawn from a Poisson process (or replayed from an explicit trace) that
the continuous-batching serving loop consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.rng import derive_rng
from repro.workloads.datasets import (
    DATASET_PROFILES,
    bucket_length,
    sample_prompt,
)

__all__ = [
    "PRIORITY_CLASSES",
    "DEFAULT_PRIORITY",
    "DEFAULT_DATASETS",
    "DEFAULT_DECODE_STEPS",
    "WorkloadSpec",
    "prefill_workloads",
    "decode_workload",
    "ArrivedWorkload",
    "poisson_arrivals",
    "diurnal_arrivals",
    "bursty_arrivals",
    "trace_arrivals",
    "priority_assignment",
    "serving_workload",
    "skewed_serving_workload",
    "chat_serving_workload",
]

#: Priority classes in ascending precedence. Defined here (the lowest
#: layer that needs them) and re-exported by :mod:`repro.serving`:
#: traces stamp a class on every entry, the serving scheduler orders
#: admission by it.
PRIORITY_CLASSES: tuple[str, ...] = ("batch", "interactive")

#: Class used when a trace or request does not specify one.
DEFAULT_PRIORITY = "batch"

#: Prompt datasets a trace cycles through, and tokens each request
#: decodes, unless a builder is told otherwise.
DEFAULT_DATASETS: tuple[str, ...] = ("mtbench", "vicuna", "chatgpt-prompts")
DEFAULT_DECODE_STEPS = 16


@dataclass(frozen=True)
class WorkloadSpec:
    """One runnable workload: a prompt plus a decode budget."""

    kind: str  # "prefill" | "decode"
    dataset: str
    prompt_tokens: np.ndarray
    decode_steps: int
    bucket: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("prefill", "decode"):
            raise ConfigError(f"workload kind must be prefill/decode, got {self.kind!r}")
        if self.decode_steps < 0:
            raise ConfigError(f"decode_steps must be non-negative, got {self.decode_steps}")

    @property
    def prompt_len(self) -> int:
        return int(np.asarray(self.prompt_tokens).size)


def prefill_workloads(
    bucket: int,
    n_samples: int = 1,
    vocab_size: int = 512,
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    seed: int = 0,
) -> list[WorkloadSpec]:
    """Prefill workloads with lengths around a Fig. 7 bucket.

    Samples cycle through the requested datasets (the paper mixes
    traces from all three for the prefill evaluation).
    """
    if n_samples <= 0:
        raise ConfigError(f"n_samples must be positive, got {n_samples}")
    for dataset in datasets:
        if dataset not in DATASET_PROFILES:
            raise ConfigError(f"unknown dataset {dataset!r}")
    specs = []
    for index in range(n_samples):
        dataset = datasets[index % len(datasets)]
        length = bucket_length(bucket, seed=seed, index=index)
        tokens = sample_prompt(
            dataset, vocab_size, seed=seed, index=index, length=length
        )
        specs.append(
            WorkloadSpec(
                kind="prefill",
                dataset=dataset,
                prompt_tokens=tokens,
                decode_steps=0,
                bucket=bucket,
            )
        )
    return specs


def decode_workload(
    decode_steps: int,
    vocab_size: int = 512,
    dataset: str = "chatgpt-prompts",
    seed: int = 0,
    index: int = 0,
) -> WorkloadSpec:
    """A decode workload: a dataset-typical prompt plus N decode steps.

    The paper evaluates TBT on ChatGPT-Prompts only, as decode latency
    is insensitive to prompt length (§VI-A.5).
    """
    if decode_steps <= 0:
        raise ConfigError(f"decode_steps must be positive, got {decode_steps}")
    tokens = sample_prompt(dataset, vocab_size, seed=seed, index=index)
    return WorkloadSpec(
        kind="decode",
        dataset=dataset,
        prompt_tokens=tokens,
        decode_steps=decode_steps,
    )


# ----------------------------------------------------------------------
# serving traces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrivedWorkload:
    """One serving-trace entry: a workload plus its arrival instant.

    ``priority`` names the request's priority class (``"batch"`` by
    default — pure FCFS when every entry uses it) and ``tbt_deadline``
    an optional per-request TBT SLO target in seconds, both forwarded
    onto the :class:`~repro.serving.request.Request` built from the
    entry.
    """

    arrival_time: float
    workload: WorkloadSpec
    priority: str = "batch"
    tbt_deadline: float | None = None

    def __post_init__(self) -> None:
        # Every serving trace passes here: a NaN or infinite instant
        # (a NaN rate, an underflowing one, a typed trace) stops at one
        # check instead of surfacing as a NaN makespan.
        if not 0 <= self.arrival_time < math.inf:
            raise ConfigError(
                f"arrival_time must be non-negative and finite, got "
                f"{self.arrival_time}"
            )
        # ``not x > 0``, not ``x <= 0``: NaN fails every comparison.
        if self.tbt_deadline is not None and not self.tbt_deadline > 0:
            raise ConfigError(
                f"tbt_deadline must be positive, got {self.tbt_deadline}"
            )


def poisson_arrivals(
    num_requests: int, rate: float, seed: int = 0, start: float = 0.0
) -> np.ndarray:
    """Arrival instants of a Poisson process with ``rate`` requests/s.

    Inter-arrival gaps are i.i.d. exponential draws from a derived
    generator, so the trace is a pure function of ``(num_requests,
    rate, seed)`` — replays are deterministic.
    """
    if num_requests <= 0:
        raise ConfigError(f"num_requests must be positive, got {num_requests}")
    if not 0 < rate < math.inf:
        raise ConfigError(f"arrival rate must be positive and finite, got {rate}")
    _check_start(start)
    rng = derive_rng(
        seed, "workload", "arrivals", "poisson", num_requests, repr(float(rate))
    )
    gaps = rng.exponential(scale=1.0 / rate, size=num_requests)
    return start + np.cumsum(gaps)


def _check_start(start: float) -> None:
    if not 0 <= start < math.inf:
        raise ConfigError(f"start must be non-negative and finite, got {start}")


def _thinned_arrivals(
    num_requests: int,
    rate_fn,
    max_rate: float,
    seed: int,
    namespace: tuple,
    start: float,
) -> np.ndarray:
    """Non-homogeneous Poisson arrivals by thinning (Lewis-Shedler).

    Candidates are drawn from a homogeneous process at ``max_rate`` and
    accepted with probability ``rate_fn(t) / max_rate``, giving exact
    samples of the time-varying process. Deterministic per
    ``(num_requests, seed, namespace)``.
    """
    rng = derive_rng(seed, "workload", "arrivals", *namespace, num_requests)
    times = np.empty(num_requests, dtype=np.float64)
    t = start
    accepted = 0
    while accepted < num_requests:
        t += rng.exponential(scale=1.0 / max_rate)
        if t == math.inf:
            # A rate so small its gaps overflow: no candidate is ever
            # accepted, so stop instead of drawing forever.
            raise ConfigError(f"arrival instants overflow at rate {max_rate}")
        if rng.random() * max_rate <= rate_fn(t):
            times[accepted] = t
            accepted += 1
    return times


def diurnal_arrivals(
    num_requests: int,
    base_rate: float,
    peak_rate: float,
    period: float = 60.0,
    seed: int = 0,
    start: float = 0.0,
) -> np.ndarray:
    """Arrivals of a sinusoidal day/night load cycle.

    The instantaneous rate swings between ``base_rate`` (trough) and
    ``peak_rate`` (crest) over each ``period`` seconds — the classic
    diurnal traffic shape autoscalers are sized against, compressed to
    simulation scale. Sampled by thinning, so replays are
    deterministic.
    """
    if num_requests <= 0:
        raise ConfigError(f"num_requests must be positive, got {num_requests}")
    if not 0 < base_rate <= peak_rate < math.inf:
        raise ConfigError(
            f"need 0 < base_rate <= peak_rate < inf, got {base_rate}/{peak_rate}"
        )
    if not 0 < period < math.inf:
        raise ConfigError(f"period must be positive and finite, got {period}")
    _check_start(start)
    mid = (base_rate + peak_rate) / 2.0
    swing = (peak_rate - base_rate) / 2.0

    def rate(t: float) -> float:
        return mid + swing * np.sin(2.0 * np.pi * t / period)

    return _thinned_arrivals(
        num_requests,
        rate,
        peak_rate,
        seed,
        ("diurnal", repr(float(base_rate)), repr(float(peak_rate)), repr(float(period))),
        start,
    )


def bursty_arrivals(
    num_requests: int,
    base_rate: float,
    burst_rate: float,
    burst_every: float = 30.0,
    burst_duration: float = 5.0,
    seed: int = 0,
    start: float = 0.0,
) -> np.ndarray:
    """Arrivals of a quiet baseline punctuated by periodic traffic spikes.

    The rate sits at ``base_rate`` and jumps to ``burst_rate`` for
    ``burst_duration`` seconds at the start of every ``burst_every``
    window — flash-crowd traffic, the stress case for threshold
    autoscaling (scale-up lag eats into the burst). Sampled by
    thinning; deterministic per seed.
    """
    if num_requests <= 0:
        raise ConfigError(f"num_requests must be positive, got {num_requests}")
    if not 0 < base_rate <= burst_rate < math.inf:
        raise ConfigError(
            f"need 0 < base_rate <= burst_rate < inf, got {base_rate}/{burst_rate}"
        )
    if not 0 < burst_duration <= burst_every:
        raise ConfigError(
            f"need 0 < burst_duration <= burst_every, got "
            f"{burst_duration}/{burst_every}"
        )
    _check_start(start)

    def rate(t: float) -> float:
        return burst_rate if (t % burst_every) < burst_duration else base_rate

    return _thinned_arrivals(
        num_requests,
        rate,
        burst_rate,
        seed,
        (
            "bursty",
            repr(float(base_rate)),
            repr(float(burst_rate)),
            repr(float(burst_every)),
            repr(float(burst_duration)),
        ),
        start,
    )


def trace_arrivals(times) -> np.ndarray:
    """Validate an explicit arrival trace (non-negative, non-decreasing)."""
    arr = np.asarray(times, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("arrival trace must be a non-empty 1-D sequence")
    if np.any(arr < 0):
        raise ConfigError("arrival times must be non-negative")
    if np.any(np.diff(arr) < 0):
        raise ConfigError("arrival times must be non-decreasing")
    return arr


def priority_assignment(
    num_requests: int,
    priority_mix: dict[str, float] | None,
    seed: int = 0,
) -> list[str]:
    """Deterministic per-request priority classes from a class mix.

    ``priority_mix`` maps class names to arrival fractions (must sum to
    1); classes are drawn i.i.d. from the mix with a derived generator,
    so the assignment is a pure function of ``(num_requests,
    priority_mix, seed)``. ``None`` assigns every request the default
    class.
    """
    if num_requests <= 0:
        raise ConfigError(f"num_requests must be positive, got {num_requests}")
    if priority_mix is None:
        return [DEFAULT_PRIORITY] * num_requests
    if not priority_mix:
        raise ConfigError("priority_mix must not be empty")
    for name, fraction in priority_mix.items():
        if name not in PRIORITY_CLASSES:
            known = ", ".join(PRIORITY_CLASSES)
            raise ConfigError(
                f"unknown priority class {name!r} in priority_mix (known: {known})"
            )
        if not fraction >= 0:  # NaN fails, too
            raise ConfigError(
                f"priority_mix fraction for {name!r} must be non-negative, "
                f"got {fraction}"
            )
    total = float(sum(priority_mix.values()))
    if not abs(total - 1.0) <= 1e-9:
        raise ConfigError(f"priority_mix fractions must sum to 1, got {total}")
    # Stable class order (precedence order) regardless of dict order.
    names = [c for c in PRIORITY_CLASSES if c in priority_mix]
    edges = np.cumsum([priority_mix[n] for n in names])
    rng = derive_rng(seed, "workload", "priorities", num_requests)
    draws = rng.random(size=num_requests)
    # side="right" + clip: a draw exactly on an edge (or a mix whose
    # float sum lands slightly under 1) still maps to a valid class.
    indices = np.minimum(np.searchsorted(edges, draws, side="right"), len(names) - 1)
    return [names[int(i)] for i in indices]


def serving_workload(
    num_requests: int | None = None,
    arrival_rate: float | None = None,
    arrival_times=None,
    decode_steps: int = DEFAULT_DECODE_STEPS,
    vocab_size: int = 512,
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    seed: int = 0,
    priority_mix: dict[str, float] | None = None,
    class_deadlines: dict[str, float] | None = None,
) -> list[ArrivedWorkload]:
    """Build a serving trace of ``num_requests`` arriving requests.

    Arrival instants come from a Poisson process at ``arrival_rate``
    requests/s, or from an explicit ``arrival_times`` trace (exactly one
    of the two must be given). ``num_requests`` defaults to the trace
    length when ``arrival_times`` is given, else to 8. Prompts cycle
    through ``datasets`` with dataset-typical lengths; each request
    decodes ``decode_steps`` tokens.

    ``priority_mix`` maps priority classes to arrival fractions (e.g.
    ``{"interactive": 0.25, "batch": 0.75}``); omitted, every request
    is the default class and serving degenerates to FCFS.
    ``class_deadlines`` optionally stamps a per-class TBT deadline
    (seconds) on every request of that class, for SLO-attainment
    reporting.
    """
    if (arrival_rate is None) == (arrival_times is None):
        raise ConfigError("pass exactly one of arrival_rate / arrival_times")
    if decode_steps < 0:
        raise ConfigError(f"decode_steps must be non-negative, got {decode_steps}")
    for dataset in datasets:
        if dataset not in DATASET_PROFILES:
            raise ConfigError(f"unknown dataset {dataset!r}")
    if class_deadlines is not None:
        for name in class_deadlines:
            if name not in PRIORITY_CLASSES:
                known = ", ".join(PRIORITY_CLASSES)
                raise ConfigError(
                    f"unknown priority class {name!r} in class_deadlines "
                    f"(known: {known})"
                )
    if arrival_times is not None:
        times = trace_arrivals(arrival_times)
        if num_requests is None:
            num_requests = int(times.size)
        elif times.size != num_requests:
            raise ConfigError(
                f"arrival trace has {times.size} entries for {num_requests} requests"
            )
        if num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {num_requests}")
    else:
        if num_requests is None:
            num_requests = 8
        if num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {num_requests}")
        times = poisson_arrivals(num_requests, arrival_rate, seed=seed)
    priorities = priority_assignment(num_requests, priority_mix, seed=seed)
    entries = []
    for index in range(num_requests):
        dataset = datasets[index % len(datasets)]
        tokens = sample_prompt(dataset, vocab_size, seed=seed, index=index)
        workload = WorkloadSpec(
            kind="decode" if decode_steps > 0 else "prefill",
            dataset=dataset,
            prompt_tokens=tokens,
            decode_steps=decode_steps,
        )
        priority = priorities[index]
        deadline = (class_deadlines or {}).get(priority)
        entries.append(
            ArrivedWorkload(
                arrival_time=float(times[index]),
                workload=workload,
                priority=priority,
                tbt_deadline=deadline,
            )
        )
    return entries


def chat_serving_workload(
    num_sessions: int = 4,
    turns_per_session: int = 3,
    session_rate: float = 0.5,
    think_time_s: float = 2.0,
    user_tokens: int = 16,
    decode_steps: int = 8,
    vocab_size: int = 512,
    dataset: str = "chatgpt-prompts",
    seed: int = 0,
) -> list[ArrivedWorkload]:
    """Multi-turn chat sessions with cross-turn prompt-prefix reuse.

    Each of ``num_sessions`` conversations opens with a dataset-typical
    prompt and then alternates: the model's ``decode_steps`` reply and
    the user's next ``user_tokens`` message are *appended* to the
    running context, so turn ``t``'s prompt is turn ``t-1``'s prompt
    plus one exchange. Consecutive turns of a session therefore share
    their entire token prefix — they activate near-identical expert
    routing profiles, and the expert residency a turn earns is exactly
    what its successor wants. This is the workload where cross-turn
    **cache reuse** pays (and where evicting a quiet session's experts
    between turns hurts): the chat analogue of the paper's
    decode-locality argument, one level up.

    Sessions start at Poisson instants (``session_rate`` sessions/s);
    within a session, turn ``t`` arrives one think-time after turn
    ``t-1`` (exponential with mean ``think_time_s``, so sessions
    interleave irregularly). All entries are returned globally sorted
    by arrival instant. Deterministic per ``(num_sessions,
    turns_per_session, seed)``; replies are synthesised token draws
    (the simulator never feeds real decoded tokens back), which
    preserves the prefix-sharing structure the cache sees.
    """
    if num_sessions <= 0:
        raise ConfigError(f"num_sessions must be positive, got {num_sessions}")
    if turns_per_session <= 0:
        raise ConfigError(
            f"turns_per_session must be positive, got {turns_per_session}"
        )
    if not 0 < think_time_s < math.inf:
        raise ConfigError(
            f"think_time_s must be positive and finite, got {think_time_s}"
        )
    if user_tokens <= 0:
        raise ConfigError(f"user_tokens must be positive, got {user_tokens}")
    if decode_steps < 0:
        raise ConfigError(f"decode_steps must be non-negative, got {decode_steps}")
    if dataset not in DATASET_PROFILES:
        raise ConfigError(f"unknown dataset {dataset!r}")
    starts = poisson_arrivals(num_sessions, session_rate, seed=seed)
    entries: list[tuple[float, int, int, WorkloadSpec]] = []
    for session in range(num_sessions):
        context = np.asarray(
            sample_prompt(dataset, vocab_size, seed=seed, index=session),
            dtype=np.int64,
        )
        arrival = float(starts[session])
        for turn in range(turns_per_session):
            entries.append(
                (
                    arrival,
                    session,
                    turn,
                    WorkloadSpec(
                        kind="decode" if decode_steps > 0 else "prefill",
                        dataset=dataset,
                        prompt_tokens=context.copy(),
                        decode_steps=decode_steps,
                    ),
                )
            )
            rng = derive_rng(seed, "workload", "chat", session, turn)
            exchange = rng.integers(
                0, vocab_size, size=max(decode_steps, 1) + user_tokens
            )
            context = np.concatenate([context, exchange])
            arrival += float(rng.exponential(scale=think_time_s))
    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return [
        ArrivedWorkload(arrival_time=arrival, workload=workload)
        for arrival, _session, _turn, workload in entries
    ]


def skewed_serving_workload(
    num_requests: int | None = None,
    arrival_rate: float | None = None,
    arrival_times=None,
    num_profiles: int = 2,
    decode_steps: int = DEFAULT_DECODE_STEPS,
    vocab_size: int = 512,
    dataset: str = "chatgpt-prompts",
    prompt_length: int | None = None,
    seed: int = 0,
) -> list[ArrivedWorkload]:
    """A serving trace of ``num_profiles`` hot prompt profiles.

    Each request replays the *exact* prompt tokens of one of
    ``num_profiles`` fixed profiles (drawn i.i.d. uniform per request
    from a derived generator — a deliberately irregular order, so no
    rotation policy aligns with it by accident), so every request of a
    profile activates the same expert routing profile — tenant skew: a
    handful of hot workloads dominate the stream. This is the trace
    where **cache-affinity fleet routing** pays: steering each
    profile's requests at the replica already holding its experts
    keeps per-replica caches hot, while profile-oblivious policies
    (round-robin) bounce every profile across every replica and thrash
    all the caches. Arrival instants follow :func:`serving_workload`'s
    convention (Poisson at ``arrival_rate`` or an explicit
    ``arrival_times`` trace).

    ``prompt_length`` fixes every profile's token count (``None``
    samples lengths from the dataset profile). Short prompts activate
    a *sparse* expert subset per layer, which is what gives profiles
    distinct cache footprints — a prompt long enough to touch every
    expert makes all profiles look alike to an expert cache.
    """
    if (arrival_rate is None) == (arrival_times is None):
        raise ConfigError("pass exactly one of arrival_rate / arrival_times")
    if num_profiles <= 0:
        raise ConfigError(f"num_profiles must be positive, got {num_profiles}")
    if decode_steps < 0:
        raise ConfigError(f"decode_steps must be non-negative, got {decode_steps}")
    if dataset not in DATASET_PROFILES:
        raise ConfigError(f"unknown dataset {dataset!r}")
    if prompt_length is not None and prompt_length <= 0:
        raise ConfigError(f"prompt_length must be positive, got {prompt_length}")
    if arrival_times is not None:
        times = trace_arrivals(arrival_times)
        if num_requests is None:
            num_requests = int(times.size)
        elif times.size != num_requests:
            raise ConfigError(
                f"arrival trace has {times.size} entries for {num_requests} requests"
            )
    else:
        if num_requests is None:
            num_requests = 8
        if num_requests <= 0:
            raise ConfigError(f"num_requests must be positive, got {num_requests}")
        times = poisson_arrivals(num_requests, arrival_rate, seed=seed)
    profiles = [
        sample_prompt(dataset, vocab_size, seed=seed, index=p, length=prompt_length)
        for p in range(num_profiles)
    ]
    rng = derive_rng(seed, "workload", "skewed-profiles", num_requests, num_profiles)
    assignment = rng.integers(0, num_profiles, size=num_requests)
    return [
        ArrivedWorkload(
            arrival_time=float(times[index]),
            workload=WorkloadSpec(
                kind="decode" if decode_steps > 0 else "prefill",
                dataset=dataset,
                prompt_tokens=profiles[int(assignment[index])],
                decode_steps=decode_steps,
            ),
        )
        for index in range(num_requests)
    ]
