"""Tiered memory engine: two-tier equivalence, spill mechanics, knobs.

Two contracts are pinned here:

- **Equivalence** — the default configuration (unbounded CPU tier, no
  disk) is bit-identical to the pre-tiering engine. Enforced the same
  way PR 2 pinned the sharding refactor: forcing the *tiered machinery*
  on with a DRAM tier big enough that nothing ever spills must
  reproduce the default engine bit-for-bit (same hidden states, same
  step timings, same hit/miss counters) for all five strategies.
- **Spill mechanics** — under a DRAM-constrained configuration spilled
  experts pay disk reads on the shared disk link, get promoted into
  the DRAM tier afterwards, and every clock/cache invariant holds, on
  one GPU and on a sharded fleet.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.engine import EngineConfig, InferenceEngine
from repro.engine.factory import make_engine, make_serving_engine, make_strategy
from repro.engine.strategy_base import LayerContext
from repro.errors import ConfigError
from repro.hardware.platform_presets import paper_testbed
from repro.models.model import ReferenceMoEModel
from repro.workloads.generator import serving_workload
from tests.conftest import SMALL_PROFILE

STRATEGIES = ["hybrimoe", "ktransformers", "adapmoe", "llamacpp", "ondemand"]


def build_engine(tiny_config, strategy_name, profile=None, **overrides):
    model = ReferenceMoEModel(tiny_config, seed=0)
    config = EngineConfig(
        cache_ratio=0.25,
        seed=0,
        **overrides,
    )
    return InferenceEngine(
        model, make_strategy(strategy_name), profile or paper_testbed(), config, **SMALL_PROFILE
    )


def step_fingerprint(metrics, drop_disk=False):
    utilization = dict(metrics.utilization)
    if drop_disk:
        assert utilization.pop("disk") == 0.0
    return (
        metrics.stage,
        metrics.n_tokens,
        metrics.start,
        metrics.end,
        metrics.hits,
        metrics.misses,
        metrics.batch_size,
        tuple(sorted(utilization.items())),
    )


def result_fingerprint(result, drop_disk=False):
    steps = [result.prefill, *result.decode_steps]
    return (
        tuple(step_fingerprint(s, drop_disk) for s in steps),
        result.total_hits,
        result.total_misses,
    )

def stage(engine, requests, moe_start):
    """Run the pipeline's prefetch pass of a decode layer 0 whose MoE
    phase starts at ``moe_start``, with ``requests`` as the strategy's
    answer: ``(layer, expert)`` loads to the GPU, ``(layer, expert,
    "dram")`` stagings into DRAM only."""
    engine.strategy.prefetch_requests = lambda *args, **kwargs: list(requests)
    ctx = LayerContext(
        layer=0, stage="decode", n_tokens=1, router=None, activated=(),
        cached_experts=frozenset(), moe_start=moe_start, pcie_backlog=0.0,
    )
    engine.pipeline._issue_prefetches(ctx, np.zeros((1, engine.model.d_model), np.float32))


def record_spilled(engine, layer):
    """The spilled sets the strategy is handed at ``layer``, as they come."""
    seen = []
    plan_layer = engine.strategy.plan_layer

    def recording(ctx):
        if ctx.layer == layer:
            seen.append(set(ctx.spilled_experts))
        return plan_layer(ctx)

    engine.strategy.plan_layer = recording
    return seen


def uses(clock, keys):
    """``(key, start)`` of every ``xfer`` or ``cpu`` row of ``keys``."""
    found = []
    for row in clock.pcie.intervals + clock.cpu.intervals:
        kind, *where = row.label.split()
        if kind in ("xfer", "cpu") and len(where) == 2:
            key = (int(where[0][1:]), int(where[1][1:]))
            if key in keys:
                found.append((key, row.start))
    return found



class TestUnboundedTierEquivalence:
    """Forced-on tiered machinery with an unspillable DRAM tier must be
    bit-identical to the default two-tier engine (the disk utilisation
    entry — always 0.0 — is the only schema difference)."""

    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_generate_bit_identical(self, tiny_config, prompt_tokens, strategy_name):
        plain = build_engine(tiny_config, strategy_name)
        tiered = build_engine(
            tiny_config,
            strategy_name,
            cpu_cache_capacity=tiny_config.total_routed_experts,
        )
        assert plain.runtime.tiered is False
        assert tiered.runtime.tiered is True

        result_plain = plain.generate(prompt_tokens, decode_steps=4)
        result_tiered = tiered.generate(prompt_tokens, decode_steps=4)
        assert result_fingerprint(result_plain) == result_fingerprint(
            result_tiered, drop_disk=True
        )
        # Nothing ever spilled, so the disk link never saw traffic.
        assert tiered.runtime.clock.disk.intervals == []

    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_hidden_states_bit_identical(
        self, tiny_config, prompt_tokens, strategy_name
    ):
        plain = build_engine(tiny_config, strategy_name)
        tiered = build_engine(
            tiny_config,
            strategy_name,
            cpu_cache_capacity=tiny_config.total_routed_experts,
        )
        hidden_plain, _ = plain._run_step(prompt_tokens, "prefill")
        hidden_tiered, _ = tiered._run_step(prompt_tokens, "prefill")
        np.testing.assert_array_equal(hidden_plain, hidden_tiered)


class TestSpillMechanics:
    @pytest.mark.parametrize("strategy_name", STRATEGIES)
    def test_constrained_dram_pays_disk_reads(
        self, tiny_config, prompt_tokens, strategy_name
    ):
        engine = build_engine(tiny_config, strategy_name, cpu_cache_capacity=4)
        result = engine.generate(prompt_tokens, decode_steps=4)
        disk = engine.runtime.clock.disk
        assert disk is not None and len(disk) > 0
        assert disk.busy_time() > 0.0
        # Spilling slows the run down relative to unbounded DRAM.
        baseline = build_engine(tiny_config, strategy_name)
        base_result = baseline.generate(prompt_tokens, decode_steps=4)
        assert result.decode_steps[-1].end > base_result.decode_steps[-1].end
        engine.runtime.clock.validate()
        assert engine.runtime.clock.audit_copies() == []
        engine.runtime.cache.validate()

    def test_staged_experts_are_promoted_to_dram(self, tiny_config, prompt_tokens):
        engine = build_engine(tiny_config, "ondemand", cpu_cache_capacity=4)
        cache = engine.runtime.cache
        engine.generate(prompt_tokens, decode_steps=2)
        cpu_tier = cache.cpu_tier
        # The tier filled up to capacity and its counters moved.
        assert len(cpu_tier) == 4
        assert cpu_tier.stats.insertions > 0
        assert cpu_tier.stats.accesses > 0

    def test_numerics_unaffected_by_spilling(self, tiny_config, prompt_tokens):
        reference = ReferenceMoEModel(tiny_config, seed=0)
        ref_hidden, _, _ = reference.forward(prompt_tokens)
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=3)
        hidden, _ = engine._run_step(prompt_tokens, "prefill")
        np.testing.assert_allclose(hidden, ref_hidden, rtol=1e-5, atol=1e-6)

    def test_deterministic_under_fixed_seed(self, tiny_config, prompt_tokens):
        fingerprints = []
        for _ in range(2):
            engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=4)
            result = engine.generate(prompt_tokens, decode_steps=4)
            cache = engine.runtime.cache
            fingerprints.append(
                (
                    result_fingerprint(result),
                    sorted(cache.cpu_tier.resident_keys),
                    len(engine.runtime.clock.disk),
                )
            )
        assert fingerprints[0] == fingerprints[1]

    def test_zero_capacity_dram_tier_runs(self, tiny_config, prompt_tokens):
        """Everything uncached spills — the degenerate GPU-or-disk config."""
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=0)
        result = engine.generate(prompt_tokens, decode_steps=2)
        assert result.total_misses > 0
        assert len(engine.runtime.clock.disk) > 0
        assert engine.runtime.clock.audit_copies() == []
        assert len(engine.runtime.cache.cpu_tier) == 0

    def test_sharded_fleet_with_tiered_memory(self, tiny_config, prompt_tokens):
        engine = build_engine(
            tiny_config, "hybrimoe", num_gpus=2, cpu_cache_capacity=4
        )
        engine.generate(prompt_tokens, decode_steps=4)
        clock = engine.runtime.clock
        assert len(clock.disk) > 0
        clock.validate()
        assert clock.audit_copies() == []
        cache = engine.runtime.cache
        cache.validate()
        assert len(cache.per_device_hit_rates()) == 2

    def test_serving_on_tiered_memory(self, tiny_config):
        serving = make_serving_engine(
            model="deepseek",
            strategy="hybrimoe",
            cache_ratio=0.25,
            num_layers=2,
            cpu_cache_capacity=8,
            max_batch_size=4,
        )
        trace = serving_workload(
            num_requests=4, arrival_rate=8.0, decode_steps=3, seed=0
        )
        report = serving.serve_trace(trace)
        assert report.num_requests == 4
        rates = serving.engine.runtime.cache.per_tier_hit_rates()
        assert set(rates) == {"gpu", "cpu"}
        serving.engine.runtime.clock.validate()
        assert serving.engine.runtime.clock.audit_copies() == []

    def test_staging_takes_its_dram_slot_when_reserved(self, tiny_config):
        """A prefetch's disk read makes its expert DRAM-resident at once,
        like every copy into DRAM; a load of it waits for the landing
        and reads nothing again."""
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=4)
        cache, clock = engine.runtime.cache, engine.runtime.clock
        key = (1, min(cache.spilled_experts(1, range(tiny_config.num_routed_experts))))
        stage(engine, [(*key, "dram")], 0.25)
        (read,) = clock.disk.intervals
        assert read.label == f"disk L1 E{key[1]}" and read.start == 0.25
        assert key in cache.cpu_tier and not cache.is_spilled(key)
        assert clock.landing == {(key, "dram"): read.finish}
        stage(engine, [key], 0.25)
        (load,) = clock.pcie.intervals
        assert load.label == f"prefetch L1 E{key[1]}" and load.start == read.finish
        assert len(clock.disk) == 1 and key in cache
        assert clock.audit_copies() == []
        cache.validate()

    def test_layer_waits_on_inflight_staging(self, tiny_config, prompt_tokens):
        """A layer that uses an expert a prefetch is still staging plans
        it as DRAM-resident, waits for that read and adds no disk row
        of its own."""
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=4)
        cache, clock = engine.runtime.cache, engine.runtime.clock
        # A disk backlog lands the stagings long after the prefill's
        # first MoE phase starts.
        clock.disk.reserve(0.0, 0.5, "backlog")
        experts = sorted(cache.spilled_experts(0, range(tiny_config.num_routed_experts)))[:2]
        stage(engine, [(0, expert, "dram") for expert in experts], 0.0)
        staged = {(0, expert): clock.landing[(0, expert), "dram"] for expert in experts}
        assert min(staged.values()) > 0.5
        planned_spilled = record_spilled(engine, layer=0)
        engine._run_step(prompt_tokens, "prefill")
        assert planned_spilled and not planned_spilled[0] & set(experts)
        for layer, expert in staged:
            reads = [row for row in clock.disk.intervals if row.label == f"disk L{layer} E{expert}"]
            assert len(reads) == 1
        used = uses(clock, staged)
        assert used
        assert all(start >= staged[key] for key, start in used)
        assert clock.audit_copies() == []

    def test_dram_eviction_of_a_staging_in_flight_reads_it_again(
        self, tiny_config, prompt_tokens
    ):
        """A staging that DRAM evicts before it lands is spilled again, so
        the layer that uses it reads it off disk once more and waits for
        that read."""
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=4)
        cache, clock = engine.runtime.cache, engine.runtime.clock
        clock.disk.reserve(0.0, 0.5, "backlog")
        key = (0, min(cache.spilled_experts(0, range(tiny_config.num_routed_experts))))
        stage(engine, [(*key, "dram")], 0.0)
        experts = range(tiny_config.num_routed_experts)
        others = [
            (layer, expert)
            for layer in (1, 2)
            for expert in sorted(cache.spilled_experts(layer, experts))
        ]
        for other in others:
            if cache.is_spilled(key):
                break
            stage(engine, [(*other, "dram")], 0.0)
        assert cache.is_spilled(key)
        engine._run_step(prompt_tokens, "prefill")
        reads = [row for row in clock.disk.intervals if row.label == f"disk L0 E{key[1]}"]
        assert len(reads) == 2
        used = uses(clock, {key})
        assert used
        assert all(start >= reads[1].finish for _, start in used)
        assert clock.audit_copies() == []

    @pytest.mark.parametrize("strategy_name", ["hybrimoe", "adapmoe", "ondemand"])
    @pytest.mark.parametrize("num_gpus", [1, 2])
    def test_every_demotion_rides_a_device_to_host_lane(
        self, tiny_config, prompt_tokens, strategy_name, num_gpus
    ):
        engine = build_engine(
            tiny_config, strategy_name, num_gpus=num_gpus, cpu_cache_capacity=4
        )
        engine.generate(prompt_tokens, decode_steps=4)
        clock = engine.runtime.clock

        def demotions(lanes):
            return sum(row.label.startswith("demote ") for lane in lanes for row in lane.intervals)

        assert demotions(clock.d2h_links) > 0
        assert demotions(clock.pcie_links) == 0
        assert all(
            row.label.startswith("demote ") for lane in clock.d2h_links for row in lane.intervals
        )
        clock.validate()
        assert clock.audit_copies() == []

    def test_gpu_eviction_is_demoted_over_its_link(self, tiny_config):
        """An expert a GPU shard evicts and DRAM lacks takes a DRAM slot
        at once, copied by one ``demote`` row on its own link's
        device-to-host lane; its wait ends when that row finishes."""
        engine = build_engine(
            tiny_config, "ondemand", num_gpus=2, cpu_cache_capacity=4
        )
        runtime = engine.runtime
        cache = runtime.cache
        key = next(
            key
            for key in sorted(cache.gpu_tier.resident_keys)
            if key not in cache.cpu_tier
        )
        device = cache.device_of(key)
        cache.shards[device].evict_explicit(key)
        engine.pipeline._charge_demotions(0.25)
        clock = runtime.clock
        assert all(link.intervals == [] for link in clock.pcie_links)
        (row,) = clock.d2h_links[device].intervals
        assert clock.d2h_links[1 - device].intervals == []
        assert row.label == f"demote L{key[0]} E{key[1]}"
        assert (row.start, row.finish) == (
            0.25,
            0.25 + runtime.cost_actual.transfer_time(tiny_config.routed_expert_shape),
        )
        assert clock.landing == {(key, "dram"): row.finish}
        assert key in cache.cpu_tier and cache.demotions == []
        cache.validate()

    def test_dram_eviction_drops_a_demotion_in_flight(self, tiny_config):
        """A demoted expert that DRAM evicts before its copy lands is
        spilled again, so its next use reads it off disk; the copy's
        landing stays in the map."""
        engine = build_engine(
            tiny_config, "ondemand", num_gpus=2, cpu_cache_capacity=4
        )
        runtime = engine.runtime
        cache = runtime.cache
        key = next(
            key
            for key in sorted(cache.gpu_tier.resident_keys)
            if key not in cache.cpu_tier
        )
        cache.shards[cache.device_of(key)].evict_explicit(key)
        engine.pipeline._charge_demotions(0.25)
        landed = runtime.clock.landing[key, "dram"]
        spilled = cache.spilled_experts(2, range(tiny_config.num_routed_experts))
        engine.pipeline._promote_spilled(2, spilled)   # more than 4 keys
        assert key not in cache.cpu_tier and cache.is_spilled(key)
        assert runtime.clock.landing[key, "dram"] == landed
        cache.validate()

    def test_eviction_of_a_staged_prefetch_charges_no_demotion(self, tiny_config):
        """A prefetch staged off disk holds a DRAM slot while its GPU copy
        is resident: a GPU eviction of it while the read is in flight
        drops a shadow, charges no ``demote`` row and keeps the landing."""
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=4)
        cache, clock = engine.runtime.cache, engine.runtime.clock
        clock.disk.reserve(0.0, 3.0, "backlog")
        key = (1, min(cache.spilled_experts(1, range(tiny_config.num_routed_experts))))
        stage(engine, [key], 0.0)
        assert key in cache and key in cache.cpu_tier
        landing = dict(clock.landing)
        assert landing[key, "dram"] > 3.0
        cache.shards[0].evict_explicit(key)
        engine.pipeline._charge_demotions(0.25)
        assert key in cache.cpu_tier and key not in cache
        assert clock.landing == landing
        assert clock.d2h_links[0].intervals == []
        assert cache.demotions == []
        cache.validate()

    def test_demoted_expert_is_used_only_after_its_copy(
        self, tiny_config, prompt_tokens
    ):
        """Experts evicted behind a device-to-host backlog are
        DRAM-resident, but the next layers use them (CPU compute or
        transfer) no earlier than their ``demote`` rows finish, and never
        read them off disk."""
        engine = build_engine(tiny_config, "hybrimoe", cpu_cache_capacity=12)
        runtime = engine.runtime
        cache = runtime.cache
        clock = runtime.clock
        clock.d2h_links[0].reserve(0.0, 0.5, "backlog")
        # Layer 1's GPU residents lose their DRAM copies, then the GPU
        # evicts them: each is demoted behind the backlog.
        for expert in sorted(cache.gpu_tier.cached_experts_of_layer(1)):
            cache.cpu_tier.evict_explicit((1, expert))
            cache.shards[0].evict_explicit((1, expert))
        engine.pipeline._charge_demotions(0.0)
        landing = {key: ready for (key, _), ready in clock.landing.items()}
        assert {tier for _, tier in clock.landing} == {"dram"}
        assert len(landing) == 4 and min(landing.values()) > 0.5
        assert landing.keys() <= cache.cpu_tier.resident_keys
        engine._run_step(prompt_tokens, "prefill")
        used = uses(clock, landing)
        assert used
        assert all(start >= landing[key] for key, start in used)
        assert clock.audit_copies() == []
        assert not any(
            row.label in {f"disk L{layer} E{expert}" for layer, expert in landing}
            for row in clock.disk.intervals
        )

    @pytest.mark.parametrize("capacity", [0, 4])
    def test_refill_waits_for_the_layers_disk_read(self, capacity):
        """A spilled, CPU-computed miss refilled in the same layer rides
        PCIe only once its ``disk`` row has finished."""
        engine = make_engine(
            model="deepseek", num_layers=4, cache_ratio=0.25, cpu_cache_capacity=capacity
        )
        engine.generate(np.arange(16), decode_steps=16)
        clock = engine.runtime.clock
        checked = 0
        for row in clock.pcie.intervals:
            kind, where = row.label.split(" ", 1)
            reads = [
                read
                for read in clock.disk.intervals
                if read.label == f"disk {where}" and read.start <= row.start
            ]
            if kind == "refill" and reads:
                assert row.start >= reads[-1].finish, row.label
                checked += 1
        assert checked
        assert clock.audit_copies() == []

    def test_mrs_dram_tier_policy(self, tiny_config, prompt_tokens):
        engine = build_engine(
            tiny_config, "hybrimoe", cpu_cache_capacity=4, cpu_cache_policy="mrs"
        )
        engine.generate(prompt_tokens, decode_steps=3)
        assert engine.runtime.cache.cpu_tier.policy.name == "mrs"
        engine.runtime.cache.validate()


@given(
    strategy_name=st.sampled_from(["hybrimoe", "adapmoe", "ondemand"]),
    num_gpus=st.integers(1, 2),
    capacity=st.integers(0, 6),
    policy=st.sampled_from(["lru", "lfu", "mrs"]),
    seed=st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_no_expert_is_used_before_it_lands(strategy_name, num_gpus, capacity, policy, seed):
    """The copy audit finds nothing on small tiered engines: every
    transfer, prefetch, refill and CPU compute of an expert starts after
    the disk read or demotion that brought it into DRAM."""
    engine = make_engine(
        model="deepseek",
        strategy=strategy_name,
        num_layers=4,
        cache_ratio=0.25,
        num_gpus=num_gpus,
        cpu_cache_capacity=capacity,
        cpu_cache_policy=policy,
        seed=seed,
    )
    engine.generate(np.arange(8), decode_steps=8)
    assert engine.runtime.clock.audit_copies() == []
    engine.runtime.cache.validate()


class TestConfigKnobs:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(cpu_cache_capacity=-1)

    def test_unknown_dram_policy_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(cpu_cache_capacity=4, cpu_cache_policy="fifo")

    def test_slower_disk_slower_run(self, tiny_config, prompt_tokens):
        ends = []
        for bandwidth in (20e9, 0.2e9):
            engine = build_engine(
                tiny_config,
                "ondemand",
                replace(paper_testbed(), disk_bw=bandwidth),
                cpu_cache_capacity=2,
            )
            result = engine.generate(prompt_tokens, decode_steps=4)
            ends.append(result.decode_steps[-1].end)
        assert ends[1] > ends[0]

    def test_factory_threads_tiered_knobs(self):
        engine = make_engine(
            num_layers=2, cpu_cache_capacity=4, cpu_cache_policy="lfu"
        )
        assert engine.runtime.tiered is True
        assert engine.runtime.cache.cpu_tier.capacity == 4
        assert engine.runtime.cache.cpu_tier.policy.name == "lfu"
        assert engine.runtime.clock.disk is not None
        assert engine.runtime.disk_fetch_est_s > 0
