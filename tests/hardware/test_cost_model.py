"""Cost-model semantics: roofline shapes and calibration."""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hardware.cost_model import (
    AnalyticCostModel,
    HardwareProfile,
)
from repro.hardware.platform_presets import paper_testbed
from repro.models.config import ExpertShape
from repro.models.presets import get_preset


@pytest.fixture
def cost() -> AnalyticCostModel:
    return AnalyticCostModel(paper_testbed())


SHAPE = ExpertShape(2048, 1408)
NUMERIC_FIELDS = [f.name for f in fields(HardwareProfile) if f.name != "name"]


class TestProfileValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            HardwareProfile(
                name="bad",
                gpu_flops=-1,
                gpu_mem_bw=1,
                gpu_overhead_s=0,
                cpu_flops=1,
                cpu_mem_bw=1,
                cpu_task_overhead_s=0,
                cpu_warmup_s=0,
                pcie_bw=1,
                pcie_latency_s=0,
            )

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            HardwareProfile(
                name="bad",
                gpu_flops=1,
                gpu_mem_bw=1,
                gpu_overhead_s=-1,
                cpu_flops=1,
                cpu_mem_bw=1,
                cpu_task_overhead_s=0,
                cpu_warmup_s=0,
                pcie_bw=1,
                pcie_latency_s=0,
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite") as err:
            replace(paper_testbed(), **{field: value})
        assert "\n" not in str(err.value)

    def test_disk_tier_always_present(self):
        profile = HardwareProfile(
            name="no-disk-given",
            gpu_flops=1,
            gpu_mem_bw=1,
            gpu_overhead_s=0,
            cpu_flops=1,
            cpu_mem_bw=1,
            cpu_task_overhead_s=0,
            cpu_warmup_s=0,
            pcie_bw=1,
            pcie_latency_s=0,
        )
        assert profile.disk_bw == paper_testbed().disk_bw
        assert AnalyticCostModel(profile).disk_transfer_time(SHAPE) > 0

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_disk_bw_rejected(self, value):
        with pytest.raises(ConfigError, match="disk_bw must be positive"):
            replace(paper_testbed(), disk_bw=value)

    def test_disk_bw_none_no_longer_means_no_disk(self):
        with pytest.raises(TypeError):
            replace(paper_testbed(), disk_bw=None)


class TestRooflineShapes:
    """The Fig. 3e/f shapes every scheduling decision relies on."""

    def test_gpu_flat_at_small_loads(self, cost):
        t1 = cost.gpu_expert_time(SHAPE, 1)
        t16 = cost.gpu_expert_time(SHAPE, 16)
        assert t16 == pytest.approx(t1, rel=0.01)

    def test_cpu_grows_linearly(self, cost):
        t64 = cost.cpu_expert_time(SHAPE, 64)
        t256 = cost.cpu_expert_time(SHAPE, 256)
        assert t256 / t64 == pytest.approx(4.0, rel=0.15)

    def test_cpu_gpu_crossover_exists(self, cost):
        """CPU wins at a single token (no transfer), GPU wins at batch."""
        single_cpu = cost.cpu_expert_time(SHAPE, 1)
        single_gpu_with_load = cost.gpu_expert_time(SHAPE, 1) + cost.transfer_time(SHAPE)
        assert single_cpu < single_gpu_with_load
        batch_cpu = cost.cpu_expert_time(SHAPE, 512)
        batch_gpu_with_load = cost.gpu_expert_time(SHAPE, 512) + cost.transfer_time(SHAPE)
        assert batch_gpu_with_load < batch_cpu

    def test_first_task_warmup_penalty(self, cost):
        warm = cost.cpu_expert_time(SHAPE, 4, first_task=False)
        cold = cost.cpu_expert_time(SHAPE, 4, first_task=True)
        assert cold > warm

    def test_zero_tokens_is_free(self, cost):
        assert cost.gpu_expert_time(SHAPE, 0) == 0.0
        assert cost.cpu_expert_time(SHAPE, 0) == 0.0
        assert cost.attention_time(512, 0) == 0.0

    def test_transfer_scales_with_bytes(self, cost):
        small = cost.transfer_time(get_preset("deepseek").routed_expert_shape)
        large = cost.transfer_time(get_preset("mixtral").routed_expert_shape)
        assert large > 10 * small

    def test_expert_bytes_match_quantisation(self, cost):
        bits = paper_testbed().bits_per_param
        assert cost.expert_bytes(SHAPE) == pytest.approx(SHAPE.param_count * bits / 8)

    def test_attention_cpu_slower_than_gpu(self, cost):
        assert cost.attention_time(4096, 128, "cpu") > cost.attention_time(
            4096, 128, "gpu"
        )

    def test_attention_rejects_unknown_device(self, cost):
        with pytest.raises(ConfigError):
            cost.attention_time(512, 4, "tpu")

    def test_negative_tokens_rejected(self, cost):
        with pytest.raises(ConfigError):
            cost.gpu_expert_time(SHAPE, -1)

    @given(tokens=st.integers(1, 4096))
    @settings(max_examples=50, deadline=None)
    def test_property_durations_positive_and_monotone(self, tokens):
        cost = AnalyticCostModel(paper_testbed())
        assert cost.cpu_expert_time(SHAPE, tokens) > 0
        assert cost.gpu_expert_time(SHAPE, tokens) > 0
        assert cost.cpu_expert_time(SHAPE, tokens + 1) >= cost.cpu_expert_time(
            SHAPE, tokens
        )
        assert cost.gpu_expert_time(SHAPE, tokens + 1) >= cost.gpu_expert_time(
            SHAPE, tokens
        )
