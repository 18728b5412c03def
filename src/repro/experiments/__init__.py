"""Experiment harness regenerating every paper table and figure.

:data:`repro.experiments.figures.ARTIFACTS` declares one
:class:`~repro.experiments.figures.Artifact` per artifact of the
paper's evaluation (Fig. 3a-f, Fig. 7, Fig. 8, Fig. 9, Table III) and
per extra ablation; each generates plain row dictionaries, which
:mod:`repro.experiments.reporting` renders as the tables ``repro
figure`` and ``benchmarks/bench_paper.py`` print (docs/BENCHMARKS.md
lists the claims checked on them).
"""

from repro.experiments.figures import (
    ARTIFACTS,
    FULL_SCALE,
    QUICK_SCALE,
    Artifact,
    ExperimentScale,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_workload

__all__ = [
    "Artifact",
    "ARTIFACTS",
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "run_workload",
    "format_table",
]
