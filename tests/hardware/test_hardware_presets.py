"""The hardware presets, pinned field by field, and the testbed ratios
``repro.hardware.platform_presets`` documents.

The table spells every value out, while ``disk-slow`` derives its
values from ``paper_testbed`` with ``dataclasses.replace``: every field must
match exactly (``==`` on floats), so a derivation that moves a value by
one ulp fails here. Changing a preset means changing this table in the
same commit — and every ``sim_fingerprint`` and golden digest with it.
"""

from dataclasses import asdict, fields

import pytest

from repro.hardware.cost_model import AnalyticCostModel, HardwareProfile
from repro.hardware.platform_presets import (
    HARDWARE_PRESETS,
    get_hardware_preset,
    paper_testbed,
)
from repro.models.presets import get_preset

PINNED = {
    "paper": {
        "name": "a6000-xeon10",
        "gpu_flops": 25e12,
        "gpu_mem_bw": 450e9,
        "gpu_overhead_s": 3e-05,
        "cpu_flops": 180e9,
        "cpu_mem_bw": 60e9,
        "cpu_task_overhead_s": 1.5e-05,
        "cpu_warmup_s": 0.00012,
        "pcie_bw": 20e9,
        "pcie_latency_s": 4e-05,
        "bits_per_param": 4.5,
        "disk_bw": 3.2e9,
        "disk_latency_s": 8e-05,
    },
    "disk-slow": {
        "name": "a6000-sata",
        "gpu_flops": 25e12,
        "gpu_mem_bw": 450e9,
        "gpu_overhead_s": 3e-05,
        "cpu_flops": 180e9,
        "cpu_mem_bw": 60e9,
        "cpu_task_overhead_s": 1.5e-05,
        "cpu_warmup_s": 0.00012,
        "pcie_bw": 20e9,
        "pcie_latency_s": 4e-05,
        "bits_per_param": 4.5,
        "disk_bw": 0.5e9,
        "disk_latency_s": 0.00015,
    },
    "edge": {
        "name": "orin-edge",
        "gpu_flops": 2.5e12,
        "gpu_mem_bw": 80e9,
        "gpu_overhead_s": 6e-05,
        "cpu_flops": 40e9,
        "cpu_mem_bw": 25e9,
        "cpu_task_overhead_s": 2.5e-05,
        "cpu_warmup_s": 0.0002,
        "pcie_bw": 8e9,
        "pcie_latency_s": 6e-05,
        "bits_per_param": 4.5,
        "disk_bw": 1.2e9,
        "disk_latency_s": 0.0002,
    },
}


class TestPinnedValues:
    def test_every_preset_is_pinned(self):
        assert set(PINNED) == set(HARDWARE_PRESETS)

    @pytest.mark.parametrize("preset", sorted(PINNED))
    def test_every_field_matches_exactly(self, preset):
        profile = get_hardware_preset(preset)
        assert set(PINNED[preset]) == {f.name for f in fields(HardwareProfile)}
        assert asdict(profile) == PINNED[preset]


#: (transfer / 1-token CPU, 512-token CPU / GPU, first crossover token)
#: on ``paper_testbed``, per model — the platform_presets docstring.
RATIOS = {
    "mixtral": (2.5323, 138.32, 3),
    "qwen2": (2.5321, 138.39, 3),
    "deepseek": (2.5495, 128.09, 4),
}


@pytest.mark.parametrize("model", sorted(RATIOS))
class TestTestbedRatios:
    @pytest.fixture
    def setup(self, model):
        return AnalyticCostModel(paper_testbed()), get_preset(model).routed_expert_shape

    def test_transfer_costs_about_two_and_a_half_single_token_cpu_runs(self, model, setup):
        cost, shape = setup
        ratio = cost.transfer_time(shape) / cost.cpu_expert_time(shape, 1)
        assert ratio == pytest.approx(RATIOS[model][0], abs=5e-4)

    def test_gpu_two_orders_faster_at_prefill(self, model, setup):
        cost, shape = setup
        ratio = cost.cpu_expert_time(shape, 512) / cost.gpu_expert_time(shape, 512)
        assert ratio == pytest.approx(RATIOS[model][1], abs=5e-3)

    def test_crossover_token_count(self, model, setup):
        cost, shape = setup
        crossover = next(
            tokens
            for tokens in range(1, 64)
            if cost.cpu_expert_time(shape, tokens)
            >= cost.transfer_time(shape) + cost.gpu_expert_time(shape, tokens)
        )
        assert crossover == RATIOS[model][2]
