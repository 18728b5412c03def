"""Warmup calibration: fit duration models from probe measurements.

The paper's system "begins with a warmup phase to collect essential
performance metrics, such as CPU and GPU processing speeds and data
transfer latency" (§IV-A). :class:`WarmupCalibrator` reproduces that
phase against our hardware substrate: it probes a ground-truth
:class:`~repro.hardware.cost_model.CostModel` at a handful of token
counts per expert shape and fits per-shape linear models, yielding the
:class:`~repro.hardware.cost_model.FittedCostModel` the *planner* uses.

Keeping planner estimates distinct from executed durations matters: it
exercises the same estimate-vs-reality gap a deployed system has. The
affine fits cannot follow the roofline's max(bandwidth, compute) knee,
so the gap is real: for a DeepSeek routed expert at one token on the
paper's GPU the fit gives 34.9 us where the roofline gives 40.8 us.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.hardware.cost_model import CostModel, FittedCostModel, LinearFit
from repro.models.config import ExpertShape, MoEModelConfig

__all__ = ["WarmupCalibrator"]

_DEFAULT_PROBE_TOKENS = (1, 4, 16, 64, 256, 1024)


def _fit_linear(tokens: np.ndarray, durations: np.ndarray) -> LinearFit:
    """Least-squares affine fit with non-negative coefficients."""
    design = np.stack([np.ones_like(tokens, dtype=np.float64), tokens.astype(np.float64)])
    coeffs, *_ = np.linalg.lstsq(design.T, durations, rcond=None)
    base, per_token = float(coeffs[0]), float(coeffs[1])
    return LinearFit(base=max(base, 0.0), per_token=max(per_token, 0.0))


class WarmupCalibrator:
    """Fits a :class:`FittedCostModel` by probing a ground-truth model.

    Parameters
    ----------
    ground_truth:
        The cost model playing the role of the physical platform.
    probe_tokens:
        Token counts probed per shape; the fit quality (and therefore
        planner accuracy) grows with coverage, mirroring longer warmups
        on the real system.
    """

    def __init__(
        self,
        ground_truth: CostModel,
        probe_tokens: tuple[int, ...] = _DEFAULT_PROBE_TOKENS,
    ) -> None:
        if not probe_tokens:
            raise ConfigError("probe_tokens must be non-empty")
        if any(t <= 0 for t in probe_tokens):
            raise ConfigError(f"probe tokens must be positive, got {probe_tokens}")
        self._ground_truth = ground_truth
        self._probe_tokens = tuple(sorted(set(probe_tokens)))

    def _probe(self, measure) -> np.ndarray:
        """One measurement at each probe point."""
        return np.array([measure(t) for t in self._probe_tokens], dtype=np.float64)

    def calibrate(self, config: MoEModelConfig) -> FittedCostModel:
        """Run the warmup phase for one model's expert shapes.

        Probes every distinct expert shape (routed and shared) plus the
        attention path for the model's hidden size, and returns the
        fitted planner-side cost model.
        """
        shapes: list[ExpertShape] = [config.routed_expert_shape]
        if config.shared_expert_shape is not None:
            shapes.append(config.shared_expert_shape)
        # De-duplicate while keeping order (DeepSeek's shared == routed shape).
        unique_shapes = list(dict.fromkeys(shapes))

        tokens = np.array(self._probe_tokens, dtype=np.int64)
        gpu_fits: dict[ExpertShape, LinearFit] = {}
        cpu_fits: dict[ExpertShape, LinearFit] = {}
        transfer_times: dict[ExpertShape, float] = {}
        disk_transfer_times: dict[ExpertShape, float] = {}
        for shape in unique_shapes:
            gpu_durations = self._probe(
                lambda t, s=shape: self._ground_truth.gpu_expert_time(s, int(t))
            )
            cpu_durations = self._probe(
                lambda t, s=shape: self._ground_truth.cpu_expert_time(s, int(t))
            )
            gpu_fits[shape] = _fit_linear(tokens, gpu_durations)
            cpu_fits[shape] = _fit_linear(tokens, cpu_durations)
            transfer_times[shape] = self._ground_truth.transfer_time(shape)
            disk_transfer_times[shape] = self._ground_truth.disk_transfer_time(shape)

        # Estimate the CPU cold-start penalty by differencing first-task
        # and steady-state probes at one token.
        small_shape = unique_shapes[0]
        first = self._ground_truth.cpu_expert_time(small_shape, 1, first_task=True)
        steady = self._ground_truth.cpu_expert_time(small_shape, 1, first_task=False)
        cpu_warmup = max(first - steady, 0.0)

        d_model = config.routed_expert_shape.d_model
        attention_fits = {}
        for device in ("gpu", "cpu"):
            durations = self._probe(
                lambda t, dev=device: self._ground_truth.attention_time(
                    d_model, int(t), device=dev
                )
            )
            attention_fits[(d_model, device)] = _fit_linear(tokens, durations)

        bytes_per_param = (
            self._ground_truth.expert_bytes(small_shape) / small_shape.param_count
        )
        return FittedCostModel(
            gpu_fits=gpu_fits,
            cpu_fits=cpu_fits,
            cpu_warmup_s=cpu_warmup,
            transfer_times=transfer_times,
            attention_fits=attention_fits,
            bytes_per_param=bytes_per_param,
            disk_transfer_times=disk_transfer_times,
        )
