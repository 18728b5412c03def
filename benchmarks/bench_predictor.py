"""Predictor race: prediction accuracy vs prefetch payoff, per strategy.

Two scenarios, both fully deterministic (metrics are *simulated* time
and the predictors are pure functions of the observation stream, so
runs are bit-stable across machines — the regression gate can be
tight):

1. **race** — ``FrequencyPrior`` and ``TransitionPredictor`` drive
   the confidence gate on the same skewed serving workload (two hot
   prompt profiles whose *marginal* expert frequencies blur together
   but whose expert-to-expert transitions stay distinct). Averaged
   over seeds, the transition predictor must beat the frequency prior
   on calibrated distance-1 prediction accuracy (the hard criterion):
   conditioning on the currently active experts is what disambiguates
   the profiles. The predictor-off cell rides along to pin goodput
   neutrality — speculation must pay for itself.

   The engine's prefetch-hit rate is tracked, not gated: its
   transition-over-frequency ratio is a ``RATIOS`` trajectory entry.
   HybriMoE prefetches in decode only, and with its prefill windows
   closed that ratio fell from 1.0044 to 0.9938 in smoke mode (full:
   1.0065 to 1.0015), and in smoke the predictor-off cell (0.9307)
   beats the transition predictor (0.9277): the edge had come from
   prefill windows. Accuracy@1 did not move (smoke 0.131 vs 0.108,
   full 0.235 vs 0.156).

2. **sensitivity** — goodput with the transition predictor on versus
   off, per strategy, on the skewed and chat workloads. The gate only
   *adds* speculative depth, so turning it on may not buy throughput
   in every regime, but it must never tank it; the worst per-cell
   ratio is tracked as a trajectory metric.

The committed repo-root ``BENCH_predictor.json`` is the trajectory
baseline; flags, file layouts and the gate rule are the harness's
(``benchmarks/harness.py``).
"""

from __future__ import annotations

import harness

from repro.engine.factory import make_serving_engine
from repro.workloads.generator import (
    chat_serving_workload,
    skewed_serving_workload,
)

#: Gate: a tracked ratio may not regress by more than this factor
#: versus the committed baseline.
REGRESSION_FACTOR = 1.25

#: Speculation may never buy goodput at the price of goodput: every
#: predictor-on cell must stay within this factor of predictor-off.
GOODPUT_TOLERANCE = 0.98

#: Race configuration (shared by smoke and full; only trace sizes and
#: seed sets scale). A short horizon keeps speculative prefetches
#: near-term — where transition accuracy is highest and a prefetched
#: expert survives in cache until its layer arrives — and ``0.3``
#: cache ratio leaves the admission slack that lets speculative
#: inserts land without churning the resident hot set.
RACE = {
    "model": "deepseek",
    "strategy": "hybrimoe",
    "cache_ratio": 0.3,
    "num_layers": 8,
    "max_batch_size": 4,
    "predict_horizon": 2,
    "confidence_gate": 0.2,
    "num_profiles": 2,
    "prompt_length": 8,
    "decode_steps": 8,
    "arrival_rate": 12.0,
}
RACE_FULL = {"num_requests": 24, "seeds": [0, 1, 2]}
RACE_SMOKE = {"num_requests": 12, "seeds": [1, 2]}

SENSITIVITY = {
    "model": "deepseek",
    "cache_ratio": 0.3,
    "num_layers": 8,
    "max_batch_size": 4,
    "predictor": "transition",
    "predict_horizon": 2,
    "confidence_gate": 0.2,
    "seed": 0,
}
SENSITIVITY_FULL = {
    "strategies": ["hybrimoe", "adapmoe", "ktransformers"],
    "skewed_requests": 24,
    "chat_sessions": 4,
}
SENSITIVITY_SMOKE = {
    "strategies": ["hybrimoe"],
    "skewed_requests": 12,
    "chat_sessions": 2,
}

PREDICTORS = [None, "frequency", "transition"]


def _skewed_trace(num_requests: int, seed: int):
    p = RACE
    return skewed_serving_workload(
        num_requests=num_requests,
        arrival_rate=p["arrival_rate"],
        num_profiles=p["num_profiles"],
        decode_steps=p["decode_steps"],
        prompt_length=p["prompt_length"],
        seed=seed,
    )


def _chat_trace(num_sessions: int, seed: int):
    return chat_serving_workload(
        num_sessions=num_sessions,
        turns_per_session=3,
        decode_steps=RACE["decode_steps"],
        seed=seed,
    )


# ----------------------------------------------------------------------
# scenario: race (frequency vs transition on the skewed workload)
# ----------------------------------------------------------------------

def _race_cell(predictor: str | None, num_requests: int, seed: int) -> dict:
    """One serve of the skewed workload under one predictor setting."""
    p = RACE
    engine = make_serving_engine(
        model=p["model"],
        strategy=p["strategy"],
        cache_ratio=p["cache_ratio"],
        num_layers=p["num_layers"],
        seed=0,
        max_batch_size=p["max_batch_size"],
        predictor=predictor,
        predict_horizon=p["predict_horizon"],
        confidence_gate=p["confidence_gate"],
    )
    report = engine.serve_trace(_skewed_trace(num_requests, seed))
    runtime = engine.engine.runtime
    gate = runtime.prediction_gate
    accuracy = gate.predictor.calibrated_accuracy() if gate else {}
    return {
        "goodput_rps": report.goodput,
        "hit_rate": report.hit_rate,
        "prefetch_issued": runtime.prefetch_issued,
        "prefetch_used": runtime.prefetch_used,
        "prefetch_hit_rate": runtime.prefetch_hit_rate(),
        "accuracy_d1": accuracy.get(1, 0.0),
    }


def _bench_race(smoke: bool) -> dict:
    scale = RACE_SMOKE if smoke else RACE_FULL
    per_predictor = {}
    for predictor in PREDICTORS:
        cells = [
            _race_cell(predictor, scale["num_requests"], seed)
            for seed in scale["seeds"]
        ]
        mean = {
            key: sum(cell[key] for cell in cells) / len(cells)
            for key in cells[0]
        }
        per_predictor[predictor or "none"] = {
            "per_seed": dict(zip(map(str, scale["seeds"]), cells)),
            "mean": mean,
        }
    frequency = per_predictor["frequency"]["mean"]
    transition = per_predictor["transition"]["mean"]
    off = per_predictor["none"]["mean"]
    return {
        "params": {**RACE, **scale},
        "predictors": per_predictor,
        "transition_vs_frequency_prefetch": (
            transition["prefetch_hit_rate"] / frequency["prefetch_hit_rate"]
        ),
        "transition_beats_frequency_prefetch": (
            transition["prefetch_hit_rate"] > frequency["prefetch_hit_rate"]
        ),
        "transition_beats_frequency_accuracy": (
            transition["accuracy_d1"] > frequency["accuracy_d1"]
        ),
        "worst_goodput_vs_off": min(
            per_predictor[name]["mean"]["goodput_rps"] / off["goodput_rps"]
            for name in ("frequency", "transition")
        ),
    }


# ----------------------------------------------------------------------
# scenario: sensitivity (predictor on vs off, per strategy x workload)
# ----------------------------------------------------------------------

def _sensitivity_cell(strategy: str, workload: str, predictor: str | None,
                      scale: dict) -> dict:
    p = SENSITIVITY
    engine = make_serving_engine(
        model=p["model"],
        strategy=strategy,
        cache_ratio=p["cache_ratio"],
        num_layers=p["num_layers"],
        seed=p["seed"],
        max_batch_size=p["max_batch_size"],
        predictor=predictor,
        predict_horizon=p["predict_horizon"],
        confidence_gate=p["confidence_gate"],
    )
    if workload == "skewed":
        trace = _skewed_trace(scale["skewed_requests"], p["seed"])
    else:
        trace = _chat_trace(scale["chat_sessions"], p["seed"])
    report = engine.serve_trace(trace)
    runtime = engine.engine.runtime
    return {
        "goodput_rps": report.goodput,
        "hit_rate": report.hit_rate,
        "prefetch_hit_rate": runtime.prefetch_hit_rate(),
    }


def _bench_sensitivity(smoke: bool) -> dict:
    scale = SENSITIVITY_SMOKE if smoke else SENSITIVITY_FULL
    cells = {}
    ratios = {}
    for strategy in scale["strategies"]:
        for workload in ("skewed", "chat"):
            off = _sensitivity_cell(strategy, workload, None, scale)
            on = _sensitivity_cell(
                strategy, workload, SENSITIVITY["predictor"], scale
            )
            label = f"{strategy}/{workload}"
            ratio = on["goodput_rps"] / off["goodput_rps"]
            cells[label] = {"off": off, "on": on, "goodput_ratio": ratio}
            ratios[label] = ratio
    return {
        "params": {**SENSITIVITY, **scale},
        "cells": cells,
        "worst_goodput_ratio": min(ratios.values()),
        "best_goodput_ratio": max(ratios.values()),
    }


# ----------------------------------------------------------------------
# claims, ratios, table
# ----------------------------------------------------------------------

def run(smoke: bool) -> tuple[dict, list[str]]:
    race = _bench_race(smoke)
    sensitivity = _bench_sensitivity(smoke)
    frequency = race["predictors"]["frequency"]["mean"]
    transition = race["predictors"]["transition"]["mean"]
    failures = []
    if not race["transition_beats_frequency_accuracy"]:
        failures.append(
            f"race: transition no longer beats frequency on calibrated "
            f"distance-1 accuracy ({transition['accuracy_d1']:.4f} vs "
            f"{frequency['accuracy_d1']:.4f})"
        )
    if race["worst_goodput_vs_off"] < GOODPUT_TOLERANCE:
        failures.append(
            f"race: a predictor cell pays >{1 - GOODPUT_TOLERANCE:.0%} "
            f"goodput vs predictor-off "
            f"(worst ratio {race['worst_goodput_vs_off']:.4f})"
        )
    if sensitivity["worst_goodput_ratio"] < GOODPUT_TOLERANCE:
        failures.append(
            f"sensitivity: predictor-on tanks goodput in some cell "
            f"(worst ratio {sensitivity['worst_goodput_ratio']:.4f} < "
            f"{GOODPUT_TOLERANCE})"
        )
    return {"scenarios": {"race": race, "sensitivity": sensitivity}}, failures


RATIOS = (
    ("race: transition vs frequency prefetch-hit rate",
     "scenarios.race.transition_vs_frequency_prefetch"),
    ("race: transition calibrated distance-1 accuracy",
     "scenarios.race.predictors.transition.mean.accuracy_d1"),
    ("sensitivity: worst predictor-on goodput ratio",
     "scenarios.sensitivity.worst_goodput_ratio"),
)


def render(payload: dict) -> str:
    race = payload["scenarios"]["race"]
    lines = ["  race (skewed workload, mean over seeds):"]
    for name in ("none", "frequency", "transition"):
        mean = race["predictors"][name]["mean"]
        lines.append(
            f"    {name:10s} goodput {mean['goodput_rps']:6.2f} req/s  "
            f"prefetch-hit {mean['prefetch_hit_rate']:.4f}  "
            f"accuracy@1 {mean['accuracy_d1']:.3f}"
        )
    lines.append(
        f"    transition vs frequency prefetch-hit: "
        f"{race['transition_vs_frequency_prefetch']:.4f}x "
        f"(beats: {race['transition_beats_frequency_prefetch']}, "
        f"accuracy beats: {race['transition_beats_frequency_accuracy']})"
    )
    sensitivity = payload["scenarios"]["sensitivity"]
    lines.append("  sensitivity (transition on vs off):")
    for label, cell in sensitivity["cells"].items():
        lines.append(
            f"    {label:24s} goodput ratio {cell['goodput_ratio']:.4f} "
            f"({cell['on']['goodput_rps']:.2f} vs "
            f"{cell['off']['goodput_rps']:.2f} req/s)"
        )
    lines.append(
        f"    worst ratio {sensitivity['worst_goodput_ratio']:.4f}, "
        f"best {sensitivity['best_goodput_ratio']:.4f}"
    )
    return "\n".join(lines)


BENCH = harness.Bench(
    name="predictor",
    run=run,
    render=render,
    criteria={
        "regression_factor": REGRESSION_FACTOR,
        "goodput_tolerance": GOODPUT_TOLERANCE,
    },
    ratios=RATIOS,
)

if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))
