"""Hardware profiles, including the paper's evaluation testbed.

The ``paper_testbed`` profile models the platform of §VI-A: an NVIDIA
RTX A6000 paired with an Intel Xeon Gold 5220R restricted to 10 cores,
connected by PCIe. Rates are *effective* values for 4-bit quantised
kernels, chosen so the per-expert times land in the ranges the paper
reports in Fig. 3(e)/(f); absolute wall-clock fidelity is not required
for the reproduction (we compare schedulers on identical hardware), but
the *ratios* between CPU compute, GPU compute and PCIe transfer are what
drive every scheduling decision. On ``paper_testbed`` they are
(``tests/hardware/test_hardware_presets.py`` pins all three per model):

- transferring an expert costs ~2.5x a single-token CPU computation of
  the same expert (so decode favours CPU compute — the
  Fiddler/kTransformers premise);
- at 512-token prefill the GPU is ~130x faster per expert than the CPU
  (so prefill favours transfers);
- expert size barely moves the crossover: CPU time first reaches
  transfer + GPU time at 3 tokens for Mixtral and Qwen2 and at 4 for
  DeepSeek. Both sides of the first ratio scale with the expert's
  parameter count, so only the fixed per-task overheads, which weigh
  more on DeepSeek's small experts, shift it.

The ``disk-slow`` variant is a ``dataclasses.replace`` of it that
changes one resource; ``edge`` is a different platform. Any other
platform is a ``replace`` away too, e.g. ``replace(paper_testbed(),
pcie_bw=40e9)`` for a PCIe 4.0-class link.

Every preset also carries a **disk tier** (``disk_bw``): an NVMe-class
drive on the paper's rig, a SATA-class drive on ``disk-slow``. The disk
only matters when the engine is configured with a capacity-limited CPU
DRAM tier (``EngineConfig.cpu_cache_capacity``); the default unbounded
DRAM tier never touches it, preserving the paper's two-tier behaviour.
The ordering that drives tiered scheduling is ``disk_bw < pcie_bw <<
cpu_mem_bw < gpu_mem_bw`` — fetching a spilled expert from disk costs
several PCIe transfers, so keeping hot experts DRAM-resident matters
more than keeping them GPU-resident.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import ConfigError
from repro.hardware.cost_model import HardwareProfile

__all__ = [
    "paper_testbed",
    "disk_slow_testbed",
    "edge_testbed",
    "HARDWARE_PRESETS",
    "get_hardware_preset",
]


def paper_testbed() -> HardwareProfile:
    """RTX A6000 + 10-core Xeon Gold 5220R over PCIe 3.0 x16 (the paper's rig)."""
    return HardwareProfile(
        name="a6000-xeon10",
        gpu_flops=25e12,          # effective 4-bit GEMM throughput
        gpu_mem_bw=450e9,         # effective of 768 GB/s peak
        gpu_overhead_s=30e-6,
        cpu_flops=180e9,          # 10 cores, AVX-512, quantised GEMM
        cpu_mem_bw=60e9,          # shared DDR4 bandwidth for 10 cores
        cpu_task_overhead_s=15e-6,
        cpu_warmup_s=120e-6,      # cold-cache first task (Fig. 3e)
        pcie_bw=20e9,             # PCIe 3.0 x16 effective
        pcie_latency_s=40e-6,
        bits_per_param=4.5,       # Marlin 4-bit + scales
        disk_bw=3.2e9,            # NVMe PCIe 3.0 x4 effective read
        disk_latency_s=80e-6,
    )


def disk_slow_testbed() -> HardwareProfile:
    """Variant with a SATA-SSD-class disk tier (spill-hostile regime).

    Used by the tiered-memory study: with disk reads ~6x slower than
    NVMe, DRAM-tier eviction quality dominates end-to-end latency once
    the model outgrows host RAM.
    """
    return replace(
        paper_testbed(),
        name="a6000-sata",
        disk_bw=0.5e9,            # SATA 3 effective read
        disk_latency_s=150e-6,
    )


def edge_testbed() -> HardwareProfile:
    """An edge-class SoC: integrated GPU, few cores, shared LPDDR, UFS.

    Models a Jetson-Orin-class embedded platform (the regime of the
    GPU-NDP edge-scheduling work in PAPERS.md): roughly an order of
    magnitude less GPU compute than the paper's A6000, a 4-core-class
    CPU budget, *shared* LPDDR5 behind both (so the effective
    GPU-memory and CPU-memory bandwidths sit far closer together than
    on a discrete rig), a narrow host-to-accelerator path, and a
    UFS-class flash tier. Every scheduling ratio shifts: transfers are
    relatively cheaper against the slow GPU (weakening the
    keep-it-resident bias), the CPU fallback is weaker, and spilling
    past DRAM is punishing — which is exactly why "does the win hold
    on edge hardware?" needs its own scenario axis rather than a
    rescaled paper profile.
    """
    return HardwareProfile(
        name="orin-edge",
        gpu_flops=2.5e12,         # Ampere iGPU, 4-bit effective
        gpu_mem_bw=80e9,          # shared LPDDR5 slice
        gpu_overhead_s=60e-6,
        cpu_flops=40e9,           # 4 efficiency-class cores
        cpu_mem_bw=25e9,          # same LPDDR5, CPU slice
        cpu_task_overhead_s=25e-6,
        cpu_warmup_s=200e-6,
        pcie_bw=8e9,              # iGPU copy-engine effective
        pcie_latency_s=60e-6,
        bits_per_param=4.5,
        disk_bw=1.2e9,            # UFS 3.1-class sequential read
        disk_latency_s=200e-6,
    )


HARDWARE_PRESETS = {
    "paper": paper_testbed,
    "disk-slow": disk_slow_testbed,
    "edge": edge_testbed,
}


def get_hardware_preset(name: str) -> HardwareProfile:
    """Look up a hardware profile by preset name."""
    try:
        return HARDWARE_PRESETS[name]()
    except KeyError:
        known = ", ".join(sorted(HARDWARE_PRESETS))
        raise ConfigError(f"unknown hardware preset {name!r} (known: {known})") from None
