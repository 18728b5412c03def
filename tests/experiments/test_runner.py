"""Experiment runner: model memoisation and configuration plumbing."""

import dataclasses

import pytest

from repro.core.hybrid_scheduler import SchedulerConfig
from repro.engine.engine import EngineConfig, InferenceEngine
from repro.experiments.runner import cached_model, cached_trace, run_workload
from repro.workloads import decode_workload, prefill_workloads


class TestCachedModel:
    def test_same_key_same_instance(self):
        a = cached_model("deepseek", 2, 0)
        b = cached_model("deepseek", 2, 0)
        assert a is b

    def test_different_seed_different_instance(self):
        a = cached_model("deepseek", 2, 0)
        b = cached_model("deepseek", 2, 1)
        assert a is not b

    def test_trace_is_shared_and_built_on_the_cached_model(self):
        trace = cached_trace("deepseek", 2, 4, 0)
        assert trace is cached_trace("deepseek", 2, 4, 0)
        assert trace.num_layers == 2 and len(trace.steps) == 5
        routing = trace.steps[0].layers[0]
        for shared in (routing.loads, routing.mean_scores):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0

    def test_layer_override_respected(self):
        model = cached_model("mixtral", 3, 0)
        assert model.config.num_layers == 3


class TestRunWorkload:
    def test_prefill_workload(self):
        workload = prefill_workloads(32, seed=0)[0]
        result = run_workload(
            "deepseek", "ktransformers", 0.5, workload, num_layers=2, seed=0
        )
        assert result.prefill.n_tokens == workload.prompt_len
        assert result.decode_steps == []

    def test_decode_workload(self):
        workload = decode_workload(3, seed=0)
        result = run_workload(
            "deepseek", "hybrimoe", 0.5, workload, num_layers=2, seed=0
        )
        assert len(result.decode_steps) == 3

    def test_engine_config_overrides(self, monkeypatch):
        from repro.experiments import runner

        configs = []

        def spy(model, strategy, hardware, config):
            configs.append(config)
            return InferenceEngine(model, strategy, hardware, config)

        monkeypatch.setattr(runner, "InferenceEngine", spy)
        scheduler = SchedulerConfig(search_transfers=False)
        result = run_workload(
            "deepseek", "hybrimoe", 0.9, decode_workload(2, seed=0), num_layers=2, seed=7,
            prefetch_lookahead=1, scheduler=scheduler,
        )
        (config,) = configs
        assert (config.prefetch_lookahead, config.scheduler) == (1, scheduler)
        assert (config.cache_ratio, config.seed) == (0.9, 7)
        assert result.cache_ratio == pytest.approx(0.9)
        assert config == dataclasses.replace(
            EngineConfig(cache_ratio=0.9, seed=7), prefetch_lookahead=1, scheduler=scheduler
        )

    def test_strategy_kwargs_reach_strategy(self):
        workload = decode_workload(2, seed=0)
        result = run_workload(
            "deepseek",
            "hybrimoe",
            0.5,
            workload,
            num_layers=2,
            seed=0,
            strategy_kwargs={"scheduling": False, "prefetching": False, "caching": False},
        )
        assert result.strategy_name == "hybrimoe[baseline]"

    def test_runs_are_reproducible(self):
        workload = decode_workload(2, seed=0)
        a = run_workload("deepseek", "hybrimoe", 0.5, workload, num_layers=2, seed=0)
        b = run_workload("deepseek", "hybrimoe", 0.5, workload, num_layers=2, seed=0)
        assert a.ttft == pytest.approx(b.ttft)
        assert a.mean_tbt == pytest.approx(b.mean_tbt)
