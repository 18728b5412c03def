"""Experiment runner: model memoisation and configuration plumbing."""

import pytest

from repro.core.hybrid_scheduler import SchedulerConfig
from repro.engine.factory import make_engine
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

    def test_is_the_model_engines_built_by_name_run_on(self):
        model = cached_model("qwen2", 2, 5)
        assert make_engine(model="qwen2", num_layers=2, seed=5).model is model


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

    def test_builds_through_make_engine(self, monkeypatch):
        """One construction path: HybriMoE's planner config and lookahead
        reach the engine as strategy arguments."""
        from repro.experiments import runner

        calls, engines = [], []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            engines.append(make_engine(*args, **kwargs))
            return engines[-1]

        monkeypatch.setattr(runner, "make_engine", spy)
        scheduler = SchedulerConfig(search_transfers=False)
        strategy_kwargs = {"lookahead": 1, "scheduler": scheduler}
        result = run_workload(
            "deepseek", "hybrimoe", 0.9, decode_workload(2, seed=0), num_layers=2, seed=7,
            strategy_kwargs=strategy_kwargs,
        )
        ((args, kwargs),) = calls
        assert args == (cached_model("deepseek", 2, 7), "hybrimoe")
        assert kwargs == {"cache_ratio": 0.9, "seed": 7, "strategy_kwargs": strategy_kwargs}
        (engine,) = engines
        assert engine.runtime.scheduler.config is scheduler
        assert engine.strategy.prefetch_lookahead == 1
        assert (engine.config.cache_ratio, engine.config.seed) == (0.9, 7)
        assert result.cache_ratio == pytest.approx(0.9)

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
