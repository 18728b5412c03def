"""Roofline cost models for expert compute and transfer.

The scheduler never touches wall-clock time: every duration comes from a
:class:`CostModel`. Two implementations are provided:

- :class:`AnalyticCostModel` — ground truth derived from a
  :class:`HardwareProfile` (peak FLOPs, memory and PCIe bandwidths,
  per-task overheads) via a max(bandwidth, compute) roofline;
- :class:`FittedCostModel` — per-shape linear fits produced by the
  warmup phase (:mod:`repro.hardware.warmup`), mirroring how the real
  HybriMoE system estimates durations from profiling rather than specs.
  The fit is affine while the roofline is a max of two terms, so the
  planner's estimates differ from executed durations, as a deployed
  system's do.

Durations are in **seconds**; shapes are paper-scale
:class:`~repro.models.config.ExpertShape` objects, so byte counts match
the real models (4-bit Marlin quantisation by default).

Every profile also describes a **disk tier** (``disk_bw`` /
``disk_latency_s``): :meth:`CostModel.disk_transfer_time` is the cost
of staging one expert's weights disk -> host DRAM, the first hop of the
disk -> CPU -> GPU transfer chain a tiered-memory engine pays for
spilled experts. A two-tier engine never asks for it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.models.config import ExpertShape

__all__ = [
    "HardwareProfile",
    "CostModel",
    "AnalyticCostModel",
    "FittedCostModel",
]


@dataclass(frozen=True)
class HardwareProfile:
    """Peak-performance description of a CPU-GPU-PCIe platform.

    All rates are effective (achievable) rather than datasheet peaks.

    Attributes
    ----------
    gpu_flops:
        Effective GPU FLOP/s for quantised GEMM.
    gpu_mem_bw:
        Effective GPU memory bandwidth in bytes/s (weight streaming).
    gpu_overhead_s:
        Fixed per-kernel launch/dispatch overhead in seconds.
    cpu_flops:
        Effective CPU FLOP/s across the allotted cores.
    cpu_mem_bw:
        Effective CPU memory bandwidth in bytes/s.
    cpu_task_overhead_s:
        Fixed per-task dispatch overhead on the CPU.
    cpu_warmup_s:
        Extra latency of the *first* CPU expert task in a layer (cold
        caches — paper Fig. 3e).
    pcie_bw:
        Effective host-to-device bandwidth in bytes/s.
    pcie_latency_s:
        Fixed per-transfer setup latency.
    bits_per_param:
        Stored bits per weight parameter (4-bit Marlin plus scales
        ~= 4.5 bits).
    disk_bw:
        Effective disk -> host-DRAM read bandwidth in bytes/s (NVMe or
        SATA SSD; the default is the paper rig's NVMe drive). Read only
        by engines with a capacity-limited DRAM tier.
    disk_latency_s:
        Fixed per-read setup latency of the disk tier.
    """

    name: str
    gpu_flops: float
    gpu_mem_bw: float
    gpu_overhead_s: float
    cpu_flops: float
    cpu_mem_bw: float
    cpu_task_overhead_s: float
    cpu_warmup_s: float
    pcie_bw: float
    pcie_latency_s: float
    bits_per_param: float = 4.5
    disk_bw: float = 3.2e9
    disk_latency_s: float = 100e-6

    def __post_init__(self) -> None:
        positive_fields = [
            ("gpu_flops", self.gpu_flops),
            ("gpu_mem_bw", self.gpu_mem_bw),
            ("cpu_flops", self.cpu_flops),
            ("cpu_mem_bw", self.cpu_mem_bw),
            ("pcie_bw", self.pcie_bw),
            ("bits_per_param", self.bits_per_param),
            ("disk_bw", self.disk_bw),
        ]
        non_negative_fields = [
            ("gpu_overhead_s", self.gpu_overhead_s),
            ("cpu_task_overhead_s", self.cpu_task_overhead_s),
            ("cpu_warmup_s", self.cpu_warmup_s),
            ("pcie_latency_s", self.pcie_latency_s),
            ("disk_latency_s", self.disk_latency_s),
        ]
        for field_name, value in positive_fields + non_negative_fields:
            if not math.isfinite(value):
                raise ConfigError(f"{field_name} must be finite, got {value}")
        for field_name, value in positive_fields:
            if value <= 0:
                raise ConfigError(f"{field_name} must be positive, got {value}")
        for field_name, value in non_negative_fields:
            if value < 0:
                raise ConfigError(f"{field_name} must be non-negative, got {value}")


class CostModel(ABC):
    """Duration oracle for expert compute, transfers and attention."""

    @abstractmethod
    def expert_bytes(self, shape: ExpertShape) -> float:
        """Stored size of one expert's weights in bytes."""

    @abstractmethod
    def gpu_expert_time(self, shape: ExpertShape, tokens: int) -> float:
        """Seconds for the GPU to run ``tokens`` through one expert."""

    @abstractmethod
    def cpu_expert_time(
        self, shape: ExpertShape, tokens: int, first_task: bool = False
    ) -> float:
        """Seconds for the CPU to run ``tokens`` through one expert.

        ``first_task`` adds the cold-cache warmup penalty observed for
        the first expert computed in a layer (paper Fig. 3e).
        """

    @abstractmethod
    def transfer_time(self, shape: ExpertShape) -> float:
        """Seconds to move one expert's weights host -> GPU over PCIe."""

    @abstractmethod
    def disk_transfer_time(self, shape: ExpertShape) -> float:
        """Seconds to read one expert's weights disk -> host DRAM."""

    @abstractmethod
    def attention_time(self, d_model: int, tokens: int, device: str = "gpu") -> float:
        """Seconds for the non-MoE part of a layer (attention + norms).

        This bounds the prefetch window: transfers issued during layer
        ``l``'s attention overlap with this duration. ``device`` is
        ``"gpu"`` normally; llama.cpp-style static mapping runs whole
        layers (attention included) on the CPU.
        """


def _validate_workload(shape: ExpertShape, tokens: int) -> None:
    if tokens < 0:
        raise ConfigError(f"tokens must be non-negative, got {tokens}")
    if shape.d_model <= 0 or shape.d_ff <= 0:
        raise ConfigError(f"invalid expert shape {shape}")


class AnalyticCostModel(CostModel):
    """Roofline model driven by a :class:`HardwareProfile`.

    Compute time is ``overhead + max(bytes/bandwidth, flops/rate)``:
    at small token counts the expert is weight-bandwidth bound (GPU time
    flat in load, Fig. 3f); at large counts it becomes FLOP bound. The
    CPU's much lower FLOP rate makes it FLOP bound almost immediately,
    which is why its time grows linearly with workload.
    """

    def __init__(self, profile: HardwareProfile) -> None:
        self.profile = profile

    def expert_bytes(self, shape: ExpertShape) -> float:
        return shape.param_count * self.profile.bits_per_param / 8.0

    def gpu_expert_time(self, shape: ExpertShape, tokens: int) -> float:
        _validate_workload(shape, tokens)
        if tokens == 0:
            return 0.0
        weight_term = self.expert_bytes(shape) / self.profile.gpu_mem_bw
        compute_term = shape.flops_per_token() * tokens / self.profile.gpu_flops
        return self.profile.gpu_overhead_s + max(weight_term, compute_term)

    def cpu_expert_time(
        self, shape: ExpertShape, tokens: int, first_task: bool = False
    ) -> float:
        _validate_workload(shape, tokens)
        if tokens == 0:
            return 0.0
        weight_term = self.expert_bytes(shape) / self.profile.cpu_mem_bw
        compute_term = shape.flops_per_token() * tokens / self.profile.cpu_flops
        warmup = self.profile.cpu_warmup_s if first_task else 0.0
        return self.profile.cpu_task_overhead_s + warmup + max(weight_term, compute_term)

    def transfer_time(self, shape: ExpertShape) -> float:
        return self.profile.pcie_latency_s + self.expert_bytes(shape) / self.profile.pcie_bw

    def disk_transfer_time(self, shape: ExpertShape) -> float:
        return self.profile.disk_latency_s + self.expert_bytes(shape) / self.profile.disk_bw

    def attention_time(self, d_model: int, tokens: int, device: str = "gpu") -> float:
        if d_model <= 0:
            raise ConfigError(f"d_model must be positive, got {d_model}")
        if tokens < 0:
            raise ConfigError(f"tokens must be non-negative, got {tokens}")
        if device not in ("gpu", "cpu"):
            raise ConfigError(f"attention device must be 'gpu' or 'cpu', got {device!r}")
        if tokens == 0:
            return 0.0
        # Attention weights ~ 4 d^2 params (Q, K, V, O projections).
        attn_bytes = 4 * d_model * d_model * self.profile.bits_per_param / 8.0
        attn_flops = 8.0 * d_model * d_model * tokens
        if device == "gpu":
            weight_term = attn_bytes / self.profile.gpu_mem_bw
            compute_term = attn_flops / self.profile.gpu_flops
            return self.profile.gpu_overhead_s + max(weight_term, compute_term)
        weight_term = attn_bytes / self.profile.cpu_mem_bw
        compute_term = attn_flops / self.profile.cpu_flops
        return self.profile.cpu_task_overhead_s + max(weight_term, compute_term)


@dataclass(frozen=True)
class LinearFit:
    """Affine duration model ``base + per_token * tokens``."""

    base: float
    per_token: float

    def __call__(self, tokens: int) -> float:
        if tokens == 0:
            return 0.0
        return self.base + self.per_token * tokens


class FittedCostModel(CostModel):
    """Per-shape linear fits, as produced by the warmup calibration.

    The real HybriMoE system learns durations from a warmup phase rather
    than from hardware datasheets; this class plays that role. Fits are
    keyed by expert shape, so models with heterogeneous expert sizes
    (shared vs routed) each get their own calibration.
    """

    def __init__(
        self,
        gpu_fits: dict[ExpertShape, LinearFit],
        cpu_fits: dict[ExpertShape, LinearFit],
        cpu_warmup_s: float,
        transfer_times: dict[ExpertShape, float],
        attention_fits: dict[tuple[int, str], LinearFit],
        bytes_per_param: float,
        disk_transfer_times: dict[ExpertShape, float],
    ) -> None:
        self._gpu_fits = dict(gpu_fits)
        self._cpu_fits = dict(cpu_fits)
        self._cpu_warmup_s = cpu_warmup_s
        self._transfer_times = dict(transfer_times)
        self._attention_fits = dict(attention_fits)
        self._bytes_per_param = bytes_per_param
        self._disk_transfer_times = dict(disk_transfer_times)

    def _lookup(self, table: dict, key, kind: str):
        try:
            return table[key]
        except KeyError:
            raise ConfigError(
                f"no {kind} calibration for {key}; run the warmup phase with this shape"
            ) from None

    def expert_bytes(self, shape: ExpertShape) -> float:
        return shape.param_count * self._bytes_per_param

    def gpu_expert_time(self, shape: ExpertShape, tokens: int) -> float:
        _validate_workload(shape, tokens)
        return self._lookup(self._gpu_fits, shape, "GPU")(tokens)

    def cpu_expert_time(
        self, shape: ExpertShape, tokens: int, first_task: bool = False
    ) -> float:
        _validate_workload(shape, tokens)
        base = self._lookup(self._cpu_fits, shape, "CPU")(tokens)
        if tokens > 0 and first_task:
            base += self._cpu_warmup_s
        return base

    def transfer_time(self, shape: ExpertShape) -> float:
        return self._lookup(self._transfer_times, shape, "transfer")

    def disk_transfer_time(self, shape: ExpertShape) -> float:
        return self._lookup(self._disk_transfer_times, shape, "disk transfer")

    def attention_time(self, d_model: int, tokens: int, device: str = "gpu") -> float:
        if tokens < 0:
            raise ConfigError(f"tokens must be non-negative, got {tokens}")
        return self._lookup(self._attention_fits, (d_model, device), "attention")(tokens)

