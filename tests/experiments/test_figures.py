"""Experiment harness smoke tests with miniature scales.

These assert structure and the paper's headline *orderings*, not
absolute values; the benchmarks regenerate the real tables.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.experiments.figures import (
    ARTIFACTS,
    ExperimentScale,
    fig3a_activation_cdf,
    fig3e_expert_count_sweep,
    fig3f_workload_sweep,
    fig7_prefill,
    fig8_decode,
    fig9_cache_hit_rate,
    replay_cache_hit_rate,
    table3_ablation,
)
from repro.errors import ConfigError

TINY = ExperimentScale(
    num_layers=3, prefill_buckets=(32,), decode_steps=6, trace_decode_steps=24
)

#: sha256 over each artifact's rows at ``TINY``, seed 0, recorded from
#: the generators as they stood before the registry (one function and
#: one hand-written ``run_workload`` block per artifact). A refactor of
#: ``figures.py`` must leave all 13 unchanged. ``fig7``, ``fig8``,
#: ``table3`` and the two HybriMoE ablations were re-recorded once, when
#: HybriMoE stopped opening prefetch windows in prefill; in each, only
#: the rows of a prefetching HybriMoE configuration moved.
GOLDEN_ARTIFACTS = {
    "fig3a": "493a684206ca6b99b9affd644cf650cc588421d75fa707a01e281c384e8cb72d",
    "fig3b": "d1993aa78dde34c810c4da7c325a88386011ce5e31f2fb33ee749bf3786a212e",
    "fig3c": "7c2d25e31ca7a3563f7f4c25536d800fce6fb5856cb1a9047a6199ddaffcfa86",
    "fig3d": "7e8a128e7704dde0f4c6aa891b5f2a21bbed0d9d3b2ba6b0bc9d47592948c277",
    "fig3e": "cf49bd3e30e5ffb62c88b548e5742a7adb3b2ccf486edbe64a44af575d48625a",
    "fig3f": "26fffbeacd08ad372be88e00ef8c3882c80ef84d25dee1ec8a510cd44bb52496",
    "fig7": "070cd2452b9b415f85e16e8678356ba32dd9a26854c2ba93d2c46e0dcb7d56ea",
    "fig8": "358f7967c77bdded7ee64ef456b785d75aeda65cda35894bb54029adfd32c74f",
    "fig9": "81005963a91e884c018bd38cf067a1d8c424bc027c474aa1eba9a933c3e48ade",
    "table3": "0ceedc5744dbc61b266059b0485d376e8c1b50d094571fe11d15575744df95b6",
    "ablation_scheduler": "7a930022a32717d4629065447300fd8eb1a2598f845cdb09988afda6e2543edd",
    "ablation_prefetch": "7fc8a94079b9a22c0e94d48db103996d4a8b7314a8a63899da1978fea86f525a",
    "ablation_mrs": "53f2a1418ad69bb60425d3f21e359e4ba782c8c0fb36298a9412ab03ea67195f",
}


def rows_digest(rows: list[dict]) -> str:
    """sha256 over the rows in order, floats rendered exactly (``float.hex``)."""
    digest = hashlib.sha256()
    for row in rows:
        cells = tuple(
            (key, float(value).hex() if isinstance(value, float) else value)
            for key, value in row.items()
        )
        digest.update(repr(cells).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def tiny_rows():
    return {name: artifact.rows(TINY, 0) for name, artifact in ARTIFACTS.items()}


class TestRegistry:
    def test_rows_match_the_pre_registry_generators(self, tiny_rows):
        assert {name: rows_digest(rows) for name, rows in tiny_rows.items()} == GOLDEN_ARTIFACTS

    def test_declarations_are_consistent(self, tiny_rows):
        """What the registry, the CLI and ``bench_paper.CLAIMS`` declare
        about each other resolves (nothing beyond ``TINY`` rows is run)."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
        from bench_paper import CLAIMS, OPS

        assert list(ARTIFACTS) == list(GOLDEN_ARTIFACTS)
        assert all(name == artifact.name for name, artifact in ARTIFACTS.items())
        subcommands = build_parser()._subparsers._group_actions[0].choices
        (name_argument,) = [a for a in subcommands["figure"]._actions if a.dest == "name"]
        assert name_argument.choices == sorted(ARTIFACTS)

        for name, artifact in ARTIFACTS.items():
            generated = set(tiny_rows[name][0])
            canned = dataclasses.replace(artifact, rows=lambda scale, seed, name=name: tiny_rows[name])
            shown = set(canned.measure(TINY, 0)[0])
            if artifact.speedup is None:
                assert shown == generated
            else:
                value_column, group_columns = artifact.speedup
                assert {value_column, *group_columns, "strategy"} <= generated
                assert shown == generated | {"speedup"}
            assert set(artifact.columns or ()) <= shown
            assert artifact.stride >= 1

        assert {claim.artifact for claim in CLAIMS} <= set(ARTIFACTS)
        labels = [claim.label for claim in CLAIMS]
        assert len(set(labels)) == len(labels) == 29
        assert all(claim.op in OPS for claim in CLAIMS)


class TestFig3Analyses:
    def test_fig3a_rows_monotone(self):
        rows = fig3a_activation_cdf(scale=TINY, curve_points=5)
        values = [r["deepseek-expert"] for r in rows]
        assert values == sorted(values)
        assert rows[-1]["opt-neuron"] == pytest.approx(1.0)

    def test_fig3e_cpu_overlap_effect(self):
        rows = fig3e_expert_count_sweep(max_experts=4)
        # CPU marginal cost of expert 2..n is below the first (warmup).
        first = rows[0]["cpu_time_s"]
        marginal = rows[1]["cpu_time_s"] - rows[0]["cpu_time_s"]
        assert marginal < first

    def test_fig3f_gpu_flat_cpu_linear(self):
        rows = fig3f_workload_sweep(workloads=(1, 64, 512))
        gpu_ratio = rows[-1]["gpu_time_s"] / rows[0]["gpu_time_s"]
        cpu_ratio = rows[-1]["cpu_time_s"] / rows[0]["cpu_time_s"]
        assert cpu_ratio > 10 * gpu_ratio


class TestEndToEndGrids:
    def test_fig7_structure_and_ordering(self):
        rows = fig7_prefill(
            models=("deepseek",),
            ratios=(0.25,),
            strategies=("llamacpp", "ktransformers", "hybrimoe"),
            scale=TINY,
        )
        assert len(rows) == 3
        by_strategy = {r["strategy"]: r["ttft_s"] for r in rows}
        assert by_strategy["llamacpp"] > by_strategy["hybrimoe"]

    def test_fig8_structure(self):
        rows = fig8_decode(
            models=("deepseek",),
            ratios=(0.5,),
            strategies=("ktransformers", "hybrimoe"),
            scale=TINY,
        )
        assert {r["strategy"] for r in rows} == {"ktransformers", "hybrimoe"}
        assert all(r["mean_tbt_s"] > 0 for r in rows)

    def test_table3_baseline_normalised(self):
        rows = table3_ablation(model_name="deepseek", scale=TINY, prefill_len=24)
        assert rows[0]["config"] == "baseline"
        assert rows[0]["prefill_speedup"] == pytest.approx(1.0)
        assert rows[0]["decode_speedup"] == pytest.approx(1.0)
        assert {r["config"] for r in rows} == {
            "baseline",
            "baseline+scheduling",
            "baseline+prefetching",
            "baseline+caching",
            "all",
        }


class TestFig9:
    def test_mrs_beats_lru_at_low_capacity(self):
        rows = fig9_cache_hit_rate(
            models=("deepseek",), percentages=(0.3,), scale=TINY
        )
        by_policy = {r["policy"]: r["hit_rate"] for r in rows}
        assert by_policy["mrs"] >= by_policy["lru"] - 0.02

    def test_hit_rate_increases_with_capacity(self):
        rows = fig9_cache_hit_rate(
            models=("deepseek",), percentages=(0.3, 0.7), policies=("lru",),
            scale=TINY,
        )
        small, large = rows[0]["hit_rate"], rows[1]["hit_rate"]
        assert large >= small

    def test_replay_requires_capacity(self, tiny_model, prompt_tokens):
        from repro.routing.generator import generate_trace

        trace = generate_trace(tiny_model, prompt_tokens, decode_steps=4, seed=0)
        with pytest.raises(ConfigError):
            replay_cache_hit_rate(trace, 0, "lru")


class TestScaleValidation:
    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            ExperimentScale(
                num_layers=2, prefill_buckets=(32,), decode_steps=0,
                trace_decode_steps=8,
            )
