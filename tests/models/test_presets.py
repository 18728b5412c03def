"""Table II presets must match the paper exactly, and each preset key
has one live functional model."""

import gc
import weakref

import pytest

from repro.engine.factory import make_engine
from repro.errors import ConfigError
from repro.models.config import ExpertShape
from repro.models.presets import MODEL_PRESETS, get_preset, preset_model


class TestTableII:
    """Each assertion mirrors one cell of paper Table II."""

    def test_mixtral_architecture(self):
        config = get_preset("mixtral")
        assert config.num_layers == 32
        assert config.num_shared_experts == 0
        assert config.num_routed_experts == 8
        assert config.num_activated_experts == 2
        assert config.routed_expert_shape == ExpertShape(4096, 14336)
        assert config.shared_expert_shape is None

    def test_qwen2_architecture(self):
        config = get_preset("qwen2")
        assert config.num_layers == 28
        assert config.num_shared_experts == 1
        assert config.num_routed_experts == 64
        assert config.num_activated_experts == 8
        assert config.routed_expert_shape == ExpertShape(3584, 18944)
        assert config.shared_expert_shape == ExpertShape(3584, 20480)

    def test_deepseek_architecture(self):
        config = get_preset("deepseek")
        assert config.num_layers == 26
        assert config.num_shared_experts == 2
        assert config.num_routed_experts == 64
        assert config.num_activated_experts == 6
        assert config.routed_expert_shape == ExpertShape(2048, 1408)
        assert config.shared_expert_shape == ExpertShape(2048, 1408)


class TestRegistry:
    def test_all_presets_constructible(self):
        for name in MODEL_PRESETS:
            assert get_preset(name).name == name

    def test_layer_override(self):
        assert get_preset("mixtral", num_layers=4).num_layers == 4

    @pytest.mark.parametrize("name", MODEL_PRESETS)
    def test_full_depth_is_the_preset_itself(self, name):
        """The weights derive from the config's name, so spelling out
        the preset's own depth must not rename it."""
        full = get_preset(name)
        assert get_preset(name, num_layers=full.num_layers) == full

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigError, match="unknown model preset"):
            get_preset("gpt5")

    def test_mixtral_expert_is_largest(self):
        mixtral = get_preset("mixtral").routed_expert_shape.param_count
        deepseek = get_preset("deepseek").routed_expert_shape.param_count
        assert mixtral > 20 * deepseek


class TestPresetModel:
    """Engines built by name share one model per ``(preset, seed)``
    while any of them holds it; nothing else keeps it alive."""

    def test_same_key_same_model_while_an_engine_lives(self):
        engine = make_engine(model="qwen2", num_layers=2, seed=21)
        assert preset_model("qwen2", 2, 21) is engine.model
        assert make_engine(model="qwen2", num_layers=2, seed=21).model is engine.model

    def test_full_depth_spellings_share_one_model(self):
        model = preset_model("mixtral", seed=21)
        assert preset_model("mixtral", num_layers=32, seed=21) is model

    @pytest.mark.parametrize(
        "other", [("qwen2", 2, 22), ("qwen2", 3, 21), ("mixtral", 2, 21)]
    )
    def test_a_different_key_is_a_different_model(self, other):
        model = preset_model("qwen2", 2, 21)
        assert preset_model(*other) is not model

    def test_entry_dies_with_the_last_holder(self):
        engine = make_engine(model="qwen2", num_layers=2, seed=23)
        ref = weakref.ref(engine.model)
        del engine
        gc.collect()
        assert ref() is None
