"""Planner perf harness with a tracked trajectory (PR 3).

Measures **planner-only latency** and writes ``BENCH_planner.json`` at
the repo root so the perf trajectory is tracked across PRs. Five
shapes: ``decode_micro`` — one decode-sized problem replanned every
iteration (the >=5x acceptance floor is defined on it) — and
``decode_shapes`` — the same problem with six fresh expert ids and a
fresh cached set per call, i.e. a few dozen layer shapes under ever
new labels, the memo's steady-state hit path in a real decode — plus
realistic call streams, where a short engine run (decode / cold
512-token prefills on 8 layers / 2-GPU decode) records every
``plan()``/``simulate_makespan()`` invocation the step pipeline and
prefetcher actually issue. Each stream is replayed against fresh
planners of three kinds:

- ``reference``: the from-scratch event simulator of
  ``tests/reference_planner.py``, no memo (the pre-PR-3 planner, kept
  as the property-test oracle) — timed in the same run, so the
  ``speedup`` ratios are comparable across machines;
- ``fast_cold``: ``HybridScheduler``, memo disabled (isolates the
  search);
- ``fast``: ``HybridScheduler`` as the engine builds it (search + plan
  memo).

Plans are bit-identical across all three (property-tested), so the
streams are planner-independent and the comparison is pure latency.
End-to-end wall clock is not measured here: it is
``host_tokens_per_s`` of the perf ledger (``bench/run.py``), which
schema 3's ``end_to_end`` block duplicated.

The gate compares measured speedups against the same mode's entry of
the committed ``BENCH_planner.json`` (on ``prefill`` also the memo-off
``speedup_cold``) and fails on a >2x regression or on missing the 5x
decode floor; flags, file layouts and the gate rule are the harness's
(``benchmarks/harness.py``).
"""

from __future__ import annotations

import time

import harness

from repro.core.hybrid_scheduler import HybridScheduler, SchedulerConfig
from repro.engine.factory import make_engine
from repro.models.presets import get_preset
from repro.rng import derive_rng
from tests.reference_planner import ReferencePlanner

#: Acceptance floor: decode planner latency must beat the reference
#: planner by at least this factor (ISSUE 3 criterion).
DECODE_SPEEDUP_FLOOR = 5.0
#: CI gate: fail when a measured speedup drops below committed/2.
REGRESSION_FACTOR = 2.0
#: The ``prefill`` stream: full-width prompts on the perf ledger's depth.
PREFILL_PROMPT_LEN = 512
PREFILL_LAYERS = 8
#: The streams ``_shape_streams`` builds, one payload row each.
SHAPES = ("decode_micro", "decode_shapes", "decode", "prefill", "multi_gpu")
#: Speedups the gate compares per shape. The memo cannot help a cold
#: prefill, so there the memo-off search is gated as well:
#: ``speedup_cold`` is ``fast_cold_us_per_call`` against the same run's
#: reference, the form of it that is comparable across machines.
GATED_SPEEDUPS = {"prefill": ("speedup", "speedup_cold")}


# ----------------------------------------------------------------------
# call-stream recording
# ----------------------------------------------------------------------

def _record_stream(engine, run) -> list[tuple[str, tuple, dict]]:
    """Capture every planner invocation a real engine run performs."""
    scheduler = engine.runtime.scheduler
    stream: list[tuple[str, tuple, dict]] = []
    original = {"plan": scheduler.plan, "simulate_makespan": scheduler.simulate_makespan}

    def recorder(kind):
        def wrapped(*args, **kwargs):
            stream.append((kind, args, kwargs))
            return original[kind](*args, **kwargs)

        return wrapped

    scheduler.plan = recorder("plan")
    scheduler.simulate_makespan = recorder("simulate_makespan")
    try:
        run(engine)
    finally:
        scheduler.plan = original["plan"]
        scheduler.simulate_makespan = original["simulate_makespan"]
    return stream


def _make_recording_engine(num_gpus: int, num_layers: int):
    return make_engine(
        model="deepseek",
        strategy="hybrimoe",
        cache_ratio=0.25,
        num_layers=num_layers,
        seed=0,
        num_gpus=num_gpus,
    )


def _decode_problem(rng) -> tuple[str, tuple, dict]:
    """One decode-sized ``plan()`` call: top-k unit loads, half of the
    layer's experts cached."""
    config = get_preset("deepseek")
    experts, k = config.num_routed_experts, config.num_activated_experts
    ids = sorted(int(e) for e in rng.choice(experts, size=k, replace=False))
    cached = set(int(e) for e in rng.choice(experts, size=experts // 2, replace=False))
    return ("plan", (0, [(e, 1) for e in ids], cached, 1), {})


def _micro_decode_stream(smoke: bool) -> list[tuple[str, tuple, dict]]:
    """One decode-sized planning problem, replanned every iteration
    (the shape the >=5x acceptance floor is defined on)."""
    problem = _decode_problem(derive_rng(0, "bench-planner", "micro-decode"))
    return [problem] * (100 if smoke else 400)


def _decode_shapes_stream(smoke: bool) -> list[tuple[str, tuple, dict]]:
    """``decode_micro``'s problem drawn afresh per call: at most 64
    shapes (six cached flags) under ids that never repeat. Four times
    ``decode_micro``'s calls, so the stream is mostly hits at smoke
    size too."""
    rng = derive_rng(0, "bench-planner", "decode-shapes")
    return [_decode_problem(rng) for _ in range(400 if smoke else 1600)]


def _shape_streams(smoke: bool) -> dict[str, list[tuple[str, tuple, dict]]]:
    decode_steps = 8 if smoke else 24
    num_layers = 4
    streams: dict[str, list] = {}

    streams["decode_micro"] = _micro_decode_stream(smoke)
    streams["decode_shapes"] = _decode_shapes_stream(smoke)

    engine = _make_recording_engine(1, num_layers)
    streams["decode"] = _record_stream(
        engine, lambda e: e.decode_only(decode_steps)
    )

    # Cold 512-token prompts through 8 layers: every expert activated,
    # 28-45 of them uncached on most layers — the widest searches the
    # planner sees, and the memo never hits. 8 plan() calls per prompt.
    rng = derive_rng(0, "bench-planner", "prefill")
    streams["prefill"] = []
    for _ in range(1 if smoke else 3):
        engine = _make_recording_engine(1, PREFILL_LAYERS)
        prompt = rng.integers(0, engine.model.vocab_size, size=PREFILL_PROMPT_LEN)
        streams["prefill"] += _record_stream(
            engine, lambda e: e.generate(prompt, decode_steps=0)
        )

    engine = _make_recording_engine(2, num_layers)
    streams["multi_gpu"] = _record_stream(
        engine, lambda e: e.decode_only(decode_steps)
    )
    return streams


# ----------------------------------------------------------------------
# replay timing
# ----------------------------------------------------------------------

_PLANNERS = {
    "reference": (ReferencePlanner, SchedulerConfig(plan_cache_size=0)),
    "fast_cold": (HybridScheduler, SchedulerConfig(plan_cache_size=0)),
    "fast": (HybridScheduler, SchedulerConfig()),
}


def _time_stream(stream, oracle_factory, planner, config, reps: int) -> float:
    """Best-of-``reps`` seconds for one full pass over the stream.

    A fresh planner per pass: memo warm-up happens *inside* the
    stream, exactly as it does inside a real decode.
    """
    best = float("inf")
    for _ in range(reps):
        scheduler = planner(oracle_factory, config)
        start = time.perf_counter()
        for kind, args, kwargs in stream:
            getattr(scheduler, kind)(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def _bench_planner(smoke: bool) -> dict:
    reps = 3 if smoke else 7
    oracle_engine = _make_recording_engine(1, 2)
    oracle_factory = oracle_engine.runtime.estimated_oracle
    results: dict[str, dict] = {}
    for shape, stream in _shape_streams(smoke).items():
        timings = {
            name: _time_stream(stream, oracle_factory, planner, config, reps)
            for name, (planner, config) in _PLANNERS.items()
        }
        calls = len(stream)
        results[shape] = {
            "calls": calls,
            "reference_us_per_call": timings["reference"] / calls * 1e6,
            "fast_cold_us_per_call": timings["fast_cold"] / calls * 1e6,
            "fast_us_per_call": timings["fast"] / calls * 1e6,
            "speedup_cold": timings["reference"] / timings["fast_cold"],
            "speedup": timings["reference"] / timings["fast"],
        }
    return results


# ----------------------------------------------------------------------
# claims, ratios, table
# ----------------------------------------------------------------------

def run(smoke: bool) -> tuple[dict, list[str]]:
    payload = _bench_planner(smoke)
    failures = []
    decode_speedup = payload["decode_micro"]["speedup"]
    if decode_speedup < DECODE_SPEEDUP_FLOOR:
        failures.append(
            f"decode_micro planner speedup {decode_speedup:.1f}x is below "
            f"the {DECODE_SPEEDUP_FLOOR:.0f}x acceptance floor"
        )
    return payload, failures


def render(payload: dict) -> str:
    return "\n".join(
        f"  {shape:13s} {row['calls']:5d} calls  "
        f"ref {row['reference_us_per_call']:8.1f} us/call  "
        f"cold {row['fast_cold_us_per_call']:8.1f} ({row['speedup_cold']:.1f}x)  "
        f"fast {row['fast_us_per_call']:8.1f} ({row['speedup']:.1f}x)"
        for shape, row in payload.items()
    )


BENCH = harness.Bench(
    name="planner",
    run=run,
    render=render,
    schema=5,
    criteria={
        "decode_speedup_floor": DECODE_SPEEDUP_FLOOR,
        "regression_factor": REGRESSION_FACTOR,
    },
    ratios=tuple(
        (f"{shape}: {metric}", f"{shape}.{metric}")
        for shape in SHAPES
        for metric in GATED_SPEEDUPS.get(shape, ("speedup",))
    ),
)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
