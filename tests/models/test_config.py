"""Unit tests for model architecture configuration."""

import pytest

from repro.errors import ConfigError
from repro.models.config import ExpertShape, MoEModelConfig


class TestExpertShape:
    def test_param_count_is_three_swiglu_matrices(self):
        shape = ExpertShape(4, 8)
        assert shape.param_count == 3 * 4 * 8

    def test_flops_per_token_is_two_per_mac(self):
        shape = ExpertShape(4, 8)
        assert shape.flops_per_token() == 2 * shape.param_count

    @pytest.mark.parametrize("d_model,d_ff", [(0, 8), (4, 0), (-1, 8), (4, -2)])
    def test_rejects_non_positive_dims(self, d_model, d_ff):
        with pytest.raises(ConfigError):
            ExpertShape(d_model, d_ff)


class TestMoEModelConfig:
    def _config(self, **overrides):
        defaults = dict(
            name="m",
            num_layers=4,
            num_shared_experts=0,
            num_routed_experts=8,
            num_activated_experts=2,
            routed_expert_shape=ExpertShape(16, 32),
            shared_expert_shape=None,
        )
        defaults.update(overrides)
        return MoEModelConfig(**defaults)

    def test_total_routed_experts(self):
        assert self._config().total_routed_experts == 32

    def test_shared_without_shape_rejected(self):
        with pytest.raises(ConfigError):
            self._config(num_shared_experts=1, shared_expert_shape=None)

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError):
            self._config(num_layers=0)

    def test_activated_beyond_pool_rejected(self):
        with pytest.raises(ConfigError):
            self._config(num_activated_experts=9)

    def test_zero_activated_rejected(self):
        with pytest.raises(ConfigError):
            self._config(num_activated_experts=0)

    def test_negative_shared_rejected(self):
        with pytest.raises(ConfigError):
            self._config(num_shared_experts=-1)

    def test_with_layers_returns_renamed_copy(self):
        reduced = self._config().with_layers(2)
        assert reduced.num_layers == 2
        assert "l2" in reduced.name

    def test_describe_mentions_name_and_counts(self):
        text = self._config().describe()
        assert "m" in text and "8 routed" in text

    def test_describe_names_shared_experts_and_their_shape(self):
        config = self._config(
            num_shared_experts=2, shared_expert_shape=ExpertShape(16, 32)
        )
        assert config.describe().endswith("top-2, 2 shared 16x32")

    @pytest.mark.parametrize("shape", [None, ExpertShape(16, 32)])
    def test_describe_without_shared_experts(self, shape):
        """A shape with no shared expert to use it is no shared expert."""
        config = self._config(num_shared_experts=0, shared_expert_shape=shape)
        assert config.describe().endswith("top-2, no shared")
