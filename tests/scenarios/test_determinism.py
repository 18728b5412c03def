"""Replay determinism: every registered scenario is a pure function.

A sweep's resumability and the bit-identity guarantees of the engine
both rest on one property: running the same (scenario, strategy, seed)
cell twice yields byte-identical payloads. This suite replays every
registered scenario across all five strategies at smoke scale and compares the full JSON cell payloads,
which embed the spec, per-request rows, class summaries and warnings.
"""

import json

import pytest

from repro.engine.factory import available_strategies
from repro.scenarios import available_scenarios, get_scenario, run_cell


def _payload_bytes(name: str, strategy: str) -> str:
    # Cap of 4 (not lower): fleet scenarios need enough requests that
    # every replica completes at least one, or the per-replica summary
    # refuses to report a makespan.
    spec = get_scenario(name).with_overrides(
        strategy=strategy, seed=0, max_requests=4, max_steps=2
    )
    return json.dumps(run_cell(spec), sort_keys=True)


class TestScenarioReplayDeterminism:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_every_scenario_replays_identically(self, name):
        for strategy in available_strategies():
            first = _payload_bytes(name, strategy)
            second = _payload_bytes(name, strategy)
            assert first == second, (
                f"scenario {name!r} under strategy {strategy!r} is not "
                f"replay-deterministic"
            )

    def test_registry_order_is_sorted(self):
        """``cli scenarios list`` iterates this order; keep it stable."""
        names = available_scenarios()
        assert names == sorted(names)
        assert len(names) == len(set(names))
