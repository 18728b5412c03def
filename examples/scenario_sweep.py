"""Scenario sweep: register a custom scenario, sweep it against built-ins.

Shows the three moves the scenario API replaces bespoke benchmark
scripts with:

1. compose typed specs (``EngineSpec`` -> ``ServingSpec`` ->
   ``FleetSpec`` + a ``WorkloadRecipe``) into a named ``ScenarioSpec``
   and register it;
2. fan the custom scenario and three built-ins (one a replica fleet)
   out across strategies with ``run_sweep`` (parallel workers,
   resumable output directory);
3. read the pooled ``SweepReport`` back from that directory as flat
   rows (the directory is temporary and removed when the example ends).

Run:  python examples/scenario_sweep.py
"""

import tempfile

from repro import (
    EngineSpec,
    FleetSpec,
    ScenarioSpec,
    ServingSpec,
    SweepReport,
    WorkloadRecipe,
    register_scenario,
    run_sweep,
)
from repro.experiments.reporting import format_table

# A scenario nobody shipped a script for: a priority mix served on the
# edge-class SoC preset with a capacity-limited DRAM tier. Registering
# it makes it sweepable by name, next to the built-ins.
register_scenario(
    ScenarioSpec(
        name="edge-tenant-mix",
        description="interactive/batch mix on the edge preset with DRAM spill",
        workload=WorkloadRecipe(
            kind="poisson",
            params={
                "num_requests": 10,
                "arrival_rate": 3.0,
                "decode_steps": 8,
                "priority_mix": {"interactive": 0.3, "batch": 0.7},
            },
        ),
        fleet=FleetSpec(
            serving=ServingSpec(
                engine=EngineSpec(
                    strategy="hybrimoe",
                    cache_ratio=0.3,
                    num_layers=6,
                    hardware="edge",
                    cpu_cache_capacity=24,
                ),
                max_batch_size=4,
            ),
            replicas=1,
        ),
    )
)


def main() -> None:
    # The directory (and every per-cell JSON in it) is removed on exit;
    # point run_sweep at a kept directory to resume a sweep later.
    with tempfile.TemporaryDirectory(prefix="scenario-sweep-") as out_dir:
        run_sweep(
            ["edge-tenant-mix", "chat-multiturn", "disk-slow-spill", "skewed-fleet"],
            out_dir,
            strategies=["hybrimoe", "ondemand"],
            processes=2,
            log=print,
        )
        report = SweepReport.load(out_dir)
    print()
    print(format_table(report.rows(), title="scenarios x strategies"))
    print("re-running against a kept output directory would skip every cell")


if __name__ == "__main__":
    main()
