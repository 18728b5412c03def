"""Warmup calibration: fitted model must track ground truth."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.hardware.cost_model import AnalyticCostModel
from repro.hardware.platform_presets import paper_testbed
from repro.hardware.warmup import WarmupCalibrator
from repro.models.config import ExpertShape
from repro.models.presets import get_preset


@pytest.fixture
def truth():
    return AnalyticCostModel(paper_testbed())


class TestCalibration:
    def test_fit_accuracy_within_probe_range(self, truth):
        config = get_preset("deepseek")
        fitted = WarmupCalibrator(truth).calibrate(config)
        shape = config.routed_expert_shape
        for tokens in (1, 8, 64, 512):
            assert fitted.cpu_expert_time(shape, tokens) == pytest.approx(
                truth.cpu_expert_time(shape, tokens), rel=0.35, abs=1e-4
            )

    def test_transfer_time_exact(self, truth):
        config = get_preset("mixtral")
        fitted = WarmupCalibrator(truth).calibrate(config)
        shape = config.routed_expert_shape
        assert fitted.transfer_time(shape) == pytest.approx(
            truth.transfer_time(shape)
        )

    def test_warmup_penalty_recovered(self, truth):
        config = get_preset("deepseek")
        fitted = WarmupCalibrator(truth).calibrate(config)
        shape = config.routed_expert_shape
        penalty = fitted.cpu_expert_time(shape, 1, first_task=True) - fitted.cpu_expert_time(
            shape, 1
        )
        assert penalty == pytest.approx(paper_testbed().cpu_warmup_s, rel=0.01)

    def test_shared_shape_also_calibrated(self, truth):
        config = get_preset("qwen2")
        fitted = WarmupCalibrator(truth).calibrate(config)
        assert fitted.gpu_expert_time(config.shared_expert_shape, 4) > 0

    def test_attention_fits_both_devices(self, truth):
        config = get_preset("deepseek")
        fitted = WarmupCalibrator(truth).calibrate(config)
        d_model = config.routed_expert_shape.d_model
        assert fitted.attention_time(d_model, 16, "cpu") > fitted.attention_time(
            d_model, 16, "gpu"
        )

    def test_uncalibrated_shape_rejected(self, truth):
        fitted = WarmupCalibrator(truth).calibrate(get_preset("deepseek"))
        with pytest.raises(ConfigError, match="calibration"):
            fitted.gpu_expert_time(ExpertShape(123, 456), 4)

    def test_invalid_probe_config(self, truth):
        with pytest.raises(ConfigError):
            WarmupCalibrator(truth, probe_tokens=())
        with pytest.raises(ConfigError):
            WarmupCalibrator(truth, probe_tokens=(0,))


class TestPresets:
    def test_all_presets_valid(self):
        from repro.hardware.platform_presets import HARDWARE_PRESETS, get_hardware_preset

        for name in HARDWARE_PRESETS:
            assert get_hardware_preset(name).name

    def test_unknown_preset(self):
        from repro.hardware.platform_presets import get_hardware_preset

        with pytest.raises(ConfigError):
            get_hardware_preset("tpu-pod")

    def test_halved_cpu_flops_doubles_compute_bound_cpu_time(self, truth):
        """A weaker CPU is a ``replace`` of the paper rig, and the cost
        model's roofline reads the change: a long prefill chunk is
        compute-bound on the CPU, so its time past the task overhead
        doubles."""
        paper = paper_testbed()
        weak = AnalyticCostModel(replace(paper, cpu_flops=paper.cpu_flops / 2))
        shape = get_preset("deepseek").routed_expert_shape
        overhead = paper.cpu_task_overhead_s
        assert weak.cpu_expert_time(shape, 512) - overhead == pytest.approx(
            2 * (truth.cpu_expert_time(shape, 512) - overhead)
        )

    def test_halved_cpu_mem_bw_leaves_compute_bound_cpu_time(self, truth):
        """The same chunk streams the expert's weights once: halving the
        DRAM bandwidth stays under the compute term and moves nothing."""
        paper = paper_testbed()
        slow = AnalyticCostModel(replace(paper, cpu_mem_bw=paper.cpu_mem_bw / 2))
        shape = get_preset("deepseek").routed_expert_shape
        assert slow.cpu_expert_time(shape, 512) == truth.cpu_expert_time(shape, 512)

    def test_doubled_pcie_bw_halves_the_transfer_payload(self, truth):
        paper = paper_testbed()
        fast = AnalyticCostModel(replace(paper, pcie_bw=2 * paper.pcie_bw))
        shape = get_preset("deepseek").routed_expert_shape
        latency = paper.pcie_latency_s
        assert fast.transfer_time(shape) - latency == pytest.approx(
            (truth.transfer_time(shape) - latency) / 2
        )

    def test_edge_preset_shifts_every_ratio(self):
        """The edge SoC is not a rescaled paper rig: compute drops by an
        order of magnitude while the CPU/GPU bandwidth gap collapses
        (shared LPDDR), so transfer-vs-compute ratios genuinely shift."""
        from repro.hardware.platform_presets import edge_testbed, paper_testbed

        edge, paper = edge_testbed(), paper_testbed()
        assert edge.name == "orin-edge"
        assert edge.gpu_flops <= paper.gpu_flops / 10
        assert edge.cpu_flops < paper.cpu_flops
        assert edge.pcie_bw < paper.pcie_bw
        assert edge.disk_bw < paper.disk_bw
        # shared LPDDR: the GPU/CPU memory-bandwidth ratio collapses
        # relative to a discrete-GPU rig
        assert (edge.gpu_mem_bw / edge.cpu_mem_bw) < (
            paper.gpu_mem_bw / paper.cpu_mem_bw
        )

    def test_edge_preset_registered(self):
        from repro.hardware.platform_presets import HARDWARE_PRESETS, get_hardware_preset

        assert "edge" in HARDWARE_PRESETS
        assert get_hardware_preset("edge").name == "orin-edge"
