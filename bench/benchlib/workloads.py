"""The four workloads, their simulated statistics and correctness checks.

Every workload is ``deepseek`` with ``num_layers=8``, strategy
``hybrimoe`` on the ``paper`` hardware preset; ``--seed`` feeds model
weights, prompts and decode sampling. A *pass* is one full, deterministic
execution of a workload split into *chunks* (one stable-seam call each),
so every chunk can be timed on every pass. Untraced and traced passes
run the very same code: only ``make_engine`` / ``make_serving_engine``,
``generate`` / ``decode_only``, ``serve_trace`` and ``serving_workload``
are called, with no fast-path or ``engine_config`` argument.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ReferenceMoEModel, get_preset, make_engine, make_serving_engine
from repro.workloads import serving_workload

COMMON = dict(strategy="hybrimoe", hardware="paper")
NUM_LAYERS = 8
#: Arrival-rate rungs of ``serve_poisson`` in simulated requests/s.
RATES = (4, 10, 16)
#: ``serve_poisson`` replays one fixed draw of arrival instants and prompts
#: at every ``--seed`` (which still varies model weights and sampling):
#: with 16 requests a rung, fresh Poisson gaps and log-normal prompt
#: lengths per seed move host work and every simulated latency by 10-45%
#: between seeds, more than any bound could absorb.
TRACE_SEED = 0
#: Latency limit of ``serve_poisson``: a request meets it when its TTFT
#: and its own p98 TBT are both within these (simulated seconds).
TTFT_LIMIT_S = 0.250
TBT_LIMIT_S = 0.150
#: Share of the requests sent that must meet the limit for a rung to
#: count towards ``sim_max_rate_rps``.
SLO_SHARE_FLOOR = 0.9
RESOURCES = ("gpu", "cpu", "pcie", "disk")


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``SMOKE`` keeps the tier-1 test in seconds."""

    decode_chunks: int
    decode_steps: int
    prompts: int
    prompt_len: int
    requests: int
    serve_decode_steps: int = 16


FULL = Sizes(decode_chunks=8, decode_steps=64, prompts=24, prompt_len=512, requests=16)
SMOKE = Sizes(2, 16, prompts=2, prompt_len=512, requests=4, serve_decode_steps=8)


@dataclass
class Chunk:
    """One timed call through a stable seam."""

    run: object  # () -> GenerationResult | ServingReport
    engine: object  # the InferenceEngine behind the call
    tokens: int  # tokens counted by host_tokens_per_s


@dataclass
class Prepared:
    """A workload set up for one pass."""

    chunks: list[Chunk]
    generate_s: float  # share of set-up spent generating inputs
    check: object  # () -> bool, the bit-exact prefill check
    operations: int  # decode steps + prompts + requests attempted


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: object = field(repr=False)  # (seed, sizes) -> Prepared
    #: (outputs, steps, sizes) -> (failed operations, workload statistics
    #: incl. ``tokens_per_s`` and ``latency_ms``)
    stats: object = field(repr=False)


def _prefill_check(build_engine, prompt):
    """Scheduled prefill must equal the reference forward bit-for-bit.

    Builds its own engine when called, outside set-up and timed regions.
    """

    def check() -> bool:
        engine = build_engine()
        model = engine.model
        hidden, _ = engine.pipeline.run_step(prompt, model.new_state(), "prefill")
        reference, _, _ = model.forward(prompt)
        return bool(np.array_equal(hidden, reference))

    return check


def _decode_workload(**engine_kwargs):
    def prepare(seed: int, sizes: Sizes) -> Prepared:
        def build():
            return make_engine(
                model="deepseek", num_layers=NUM_LAYERS, seed=seed, **COMMON,
                **engine_kwargs,
            )

        engine = build()
        steps = sizes.decode_steps
        # decode_only re-prefills its 8-token warm prompt on the running
        # sequence, so N calls of `steps` are one N*steps-step decode.
        chunks = [
            Chunk(lambda: engine.decode_only(steps), engine, 8 + steps)
            for _ in range(sizes.decode_chunks)
        ]
        started = time.perf_counter()
        prompt = np.random.default_rng([seed, 1]).integers(0, 512, size=64)
        generate_s = time.perf_counter() - started
        return Prepared(
            chunks, generate_s, _prefill_check(build, prompt), sizes.decode_chunks * steps
        )

    return prepare


def _prepare_prefill(seed: int, sizes: Sizes) -> Prepared:
    model = ReferenceMoEModel(get_preset("deepseek", num_layers=NUM_LAYERS), seed=seed)
    started = time.perf_counter()
    prompts = np.random.default_rng([seed, 2]).integers(
        0, model.vocab_size, size=(sizes.prompts, sizes.prompt_len)
    )
    generate_s = time.perf_counter() - started

    def build():
        return make_engine(model=model, cache_ratio=0.5, seed=seed, **COMMON)

    chunks = []
    for prompt in prompts:
        engine = build()
        chunks.append(
            Chunk(
                lambda e=engine, p=prompt: e.generate(p, decode_steps=0),
                engine,
                sizes.prompt_len,
            )
        )
    return Prepared(
        chunks, generate_s, _prefill_check(build, prompts[0]), sizes.prompts
    )


def _prepare_serve(seed: int, sizes: Sizes) -> Prepared:
    def build():
        return make_serving_engine(
            model="deepseek", num_layers=NUM_LAYERS, cache_ratio=0.5,
            max_batch_size=8, seed=seed, **COMMON,
        )

    chunks = []
    generate_s = 0.0
    for rate in RATES:
        serving = build()
        started = time.perf_counter()
        trace = serving_workload(
            num_requests=sizes.requests,
            arrival_rate=float(rate),
            decode_steps=sizes.serve_decode_steps,
            seed=TRACE_SEED,
        )
        generate_s += time.perf_counter() - started
        # A prompt token costs a small fraction of a generated one, so
        # host_tokens_per_s counts generated tokens: 16 x requests/s.
        chunks.append(
            Chunk(
                lambda s=serving, t=trace: s.serve_trace(t),
                serving.engine,
                sizes.requests * sizes.serve_decode_steps,
            )
        )
    prompt = np.asarray(trace[0].workload.prompt_tokens)
    return Prepared(
        chunks,
        generate_s,
        _prefill_check(lambda: build().engine, prompt),
        len(RATES) * sizes.requests,
    )


# ----------------------------------------------------------------------
# simulated statistics
# ----------------------------------------------------------------------
def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _unique_steps(outputs) -> list:
    """Every StepMetrics of a pass exactly once, in execution order."""
    steps, seen = [], set()

    def add(step):
        if step is not None and id(step) not in seen:
            seen.add(id(step))
            steps.append(step)

    for out in outputs:
        if hasattr(out, "requests"):  # ServingReport
            for result in (r.result for r in out.requests if r.result is not None):
                add(result.prefill)
                for step in result.decode_steps:
                    add(step)
        else:  # GenerationResult
            add(out.prefill)
            for step in out.decode_steps:
                add(step)
    steps.sort(key=lambda s: (s.start, s.end))
    return steps


def _hex(value) -> str | None:
    """Exact rendering of a simulated instant (None: never reached)."""
    return None if value is None else float(value).hex()


def fingerprint(outputs, steps) -> str:
    """sha256 over every step and request row, floats rendered exactly."""
    digest = hashlib.sha256()
    for step in steps:
        row = (step.stage, _hex(step.start), _hex(step.end), step.hits, step.misses)
        digest.update(repr(row).encode())
    for out in outputs:
        for r in getattr(out, "requests", ()):
            row = (
                r.request_id, r.prompt_len, r.decode_tokens, r.status,
                _hex(r.arrival_time), _hex(r.prefill_start), _hex(r.first_token_time),
                _hex(r.finish_time), tuple(_hex(t) for t in r.tbt_values),
            )
            digest.update(repr(row).encode())
    return digest.hexdigest()


def _meets_limit(record) -> bool:
    return (
        record.is_completed
        and record.first_token_time is not None
        and record.ttft <= TTFT_LIMIT_S
        and len(record.tbt_values) > 0
        and _percentile(record.tbt_values, 98) <= TBT_LIMIT_S
    )


def _rung_stats(report, sent: int) -> dict:
    done = report.completed
    gaps = [gap for r in done for gap in r.tbt_values]
    by_arrival = sorted(done, key=lambda r: r.arrival_time)
    half = len(by_arrival) // 2
    wait_first = float(np.mean([r.queueing_delay for r in by_arrival[:half]] or [0.0]))
    wait_second = float(np.mean([r.queueing_delay for r in by_arrival[half:]] or [0.0]))
    return {
        "ttft_p50_ms": _ms(_percentile([r.ttft for r in done], 50)),
        "ttft_p75_ms": _ms(_percentile([r.ttft for r in done], 75)),
        "tbt_p50_ms": _ms(_percentile(gaps, 50)),
        "tbt_p98_ms": _ms(_percentile(gaps, 98)),
        "goodput_rps": report.goodput,
        "tokens_per_s": report.token_throughput,
        "slo_share": sum(_meets_limit(r) for r in report.requests) / sent,
        "queue_wait_ms": _ms(float(np.mean([r.queueing_delay for r in done]))),
        # The backlog counts as growing when later arrivals wait more
        # than twice as long as earlier ones (10 ms of slack).
        "backlog_growing": wait_second > 2.0 * wait_first + 0.010,
    }


def _decode_stats(outputs, steps, sizes: Sizes):
    gaps = [s.duration for s in steps if s.stage == "decode"]
    warm = [s.duration for s in steps if s.stage == "prefill"]
    failed = sum(abs(len(out.decode_steps) - sizes.decode_steps) for out in outputs)
    # p98 is the highest percentile with >= 10 of the 512 gaps beyond it;
    # the median is a cost-model constant (the all-hits step).
    tail = _ms(_percentile(gaps, 98))
    return failed, {
        "tokens_per_s": len(gaps) / sum(gaps),
        "latency_ms": tail,
        "tbt_p50_ms": _ms(_percentile(gaps, 50)),
        "tbt_p98_ms": tail,
        "ttft_p50_ms": _ms(_percentile(warm, 50)),
    }


def _prefill_stats(outputs, steps, sizes: Sizes):
    ttfts = [out.ttft for out in outputs]
    failed = sum(out.prefill is None or out.decode_steps != [] for out in outputs)
    median = _ms(_percentile(ttfts, 50))
    return failed, {
        "tokens_per_s": sizes.prompts * sizes.prompt_len / sum(ttfts),
        "latency_ms": median,
        "ttft_p50_ms": median,
    }


def _serve_stats(outputs, steps, sizes: Sizes):
    failed = 0
    rungs = {}
    for rate, report in zip(RATES, outputs):
        ids = [r.request_id for r in report.requests]
        failed += sum(
            not (
                r.is_completed
                and r.decode_tokens == sizes.serve_decode_steps
                and len(r.tbt_values) == sizes.serve_decode_steps
            )
            for r in report.requests
        )
        failed += abs(sizes.requests - len(ids)) + (len(ids) - len(set(ids)))
        rungs[rate] = _rung_stats(report, sizes.requests)
    passing = [
        rate
        for rate, s in rungs.items()
        if s["slo_share"] >= SLO_SHARE_FLOOR and not s["backlog_growing"]
    ]
    middle, top = rungs[RATES[1]], rungs[RATES[-1]]
    generated = len(RATES) * sizes.requests * sizes.serve_decode_steps
    return failed, {
        "rungs": rungs,
        "max_rate_rps": float(max(passing, default=0)),
        "goodput_rps": top["goodput_rps"],
        "slo_share": top["slo_share"],
        # Generated tokens per second the platform was stepping, over
        # the whole ladder: idle gaps between arrivals drop out,
        # batching efficiency does not.
        "tokens_per_s": generated / sum(s.duration for s in steps),
        # First-token latency from arrival, pooled over the ladder (48
        # samples): the steadiest across seeds of the serving latencies.
        "latency_ms": _ms(
            _percentile([r.ttft for report in outputs for r in report.completed], 50)
        ),
        **{k: middle[k] for k in ("tbt_p50_ms", "tbt_p98_ms", "ttft_p50_ms", "ttft_p75_ms")},
        "batch_size_mean": float(
            np.mean([s.batch_size for s in steps if s.stage == "decode"])
        ),
        "queue_wait_ms": float(np.mean([s["queue_wait_ms"] for s in rungs.values()])),
        "admits": sum(len(report.requests) for report in outputs),
    }


def summarise(workload: Workload, prepared: Prepared, outputs, sizes: Sizes) -> dict:
    """Simulated statistics, failed-operation count and fingerprint."""
    steps = _unique_steps(outputs)
    hits = sum(s.hits for s in steps)
    misses = sum(s.misses for s in steps)
    engines = list({id(c.engine): c.engine for c in prepared.chunks}.values())
    accesses = sum(e.runtime.cache.stats.accesses for e in engines)
    failed, sim = workload.stats(outputs, steps, sizes)
    sim["fingerprint"] = fingerprint(outputs, steps)
    sim["hit_rate"] = hits / (hits + misses)
    sim["accesses_consistent"] = hits + misses == accesses
    for resource in RESOURCES:
        values = [s.utilization[resource] for s in steps if resource in s.utilization]
        sim[f"util.{resource}"] = float(np.mean(values)) if values else 0.0
    critical = [
        max((r for r in RESOURCES if r in s.utilization), key=lambda r: s.utilization[r])
        for s in steps
    ]
    for resource in RESOURCES:
        sim[f"critical.{resource}"] = critical.count(resource) / len(critical)

    issued = sum(e.runtime.prefetch_issued for e in engines)
    used = sum(e.runtime.prefetch_used for e in engines)
    memo = [e.runtime.scheduler.cache_info() for e in engines]
    lookups = sum(m["hits"] + m["misses"] for m in memo)
    sim["prefetch_issued"] = issued
    sim["prefetch_used"] = used
    sim["prefetch_useful_share"] = used / issued if issued else 0.0
    sim["memo_hit_share"] = sum(m["hits"] for m in memo) / lookups if lookups else 0.0
    tiers = [_tier_stats(e.runtime.cache) for e in engines]
    sim["evictions"] = sum(t["evictions"] for t in tiers)
    dram_accesses = sum(t["dram_accesses"] for t in tiers)
    sim["dram_hit_rate"] = (
        sum(t["dram_hits"] for t in tiers) / dram_accesses if dram_accesses else 0.0
    )
    sim["failed"] = failed + (0 if sim["accesses_consistent"] else 1)
    return sim


def _tier_stats(cache) -> dict:
    """Eviction and DRAM-tier counters through the caches' public stats."""
    tier_stats = getattr(cache, "tier_stats", None)
    if tier_stats is None:
        return {"evictions": cache.stats.evictions, "dram_hits": 0, "dram_accesses": 0}
    tiers = tier_stats()
    return {
        "evictions": tiers["gpu"].evictions + tiers["cpu"].evictions,
        "dram_hits": tiers["cpu"].hits,
        "dram_accesses": tiers["cpu"].accesses,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decode_hot",
            "1 GPU, cache_ratio 0.75, 512 decode steps: ~88% cache hits, GPU-critical; "
            "host time is expert math, pipeline glue and prefetch screening",
            _decode_workload(cache_ratio=0.75),
            _decode_stats,
        ),
        Workload(
            "decode_pressured",
            "2 GPUs, cache_ratio 0.25, 320-slot LRU DRAM tier, 512 decode steps: cache on its "
            "insert/evict/promote path through sharded+tiered wrappers, disk-critical",
            _decode_workload(
                num_gpus=2,
                placement="round_robin",
                cache_ratio=0.25,
                cpu_cache_capacity=320,
                cpu_cache_policy="lru",
            ),
            _decode_stats,
        ),
        Workload(
            "prefill_long",
            "24 cold engines sharing one model, one 512-token prefill each, cache_ratio 0.5: "
            "gemm-shaped expert math, planner memo useless, PCIe-critical, no prefetching",
            _prepare_prefill,
            _prefill_stats,
        ),
        Workload(
            "serve_poisson",
            "continuous batching (max 8), one fixed draw of 16 Poisson requests x 16 tokens at 4, 10, "
            "16 req/s (simulated, open loop): planner-heavy fused batches, admission, queueing",
            _prepare_serve,
            _serve_stats,
        ),
    )
}
