"""Experiments: one module per figure/lemma/theorem of the paper.

Each module exposes
``run(seed=0, quick=False, ..., workers=None) -> ExperimentResult``,
registered in :data:`EXPERIMENTS` (the ablations in :data:`ABLATIONS`)
in paper order; ``repro experiments`` and
``examples/reproduce_paper.py`` run the battery from there.

Every experiment builds its sweep as a grid of
:class:`repro.exec.RunSpec` cells executed through the shared engine:
``workers`` processes run cells concurrently (default: all cores) and
the resulting tables are byte-identical at any worker count, because
each cell's seed is derived from the root seed and the cell's grid
coordinates — never from execution order.
"""

from __future__ import annotations

from typing import Callable

from . import (
    e01_new_old_inversion,
    e02_figure3a,
    e03_figure3b,
    e04_lemma2,
    e05_sync_sweep,
    e06_impossibility,
    e07_es_termination,
    e08_es_safety,
    e09_latency,
    e10_baseline_comparison,
    e11_churn_cap,
    e12_burst_churn,
    e13_keyed_store,
    e14_sharded_cluster,
    e15_migration,
    e16_rebalance,
    e17_population_scaling,
)
from .ablations import ABLATIONS
from .harness import ExperimentResult, format_table

#: Registry: experiment id -> runner, in paper order.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "E1": e01_new_old_inversion.run,
    "E2": e02_figure3a.run,
    "E3": e03_figure3b.run,
    "E4": e04_lemma2.run,
    "E5": e05_sync_sweep.run,
    "E6": e06_impossibility.run,
    "E7": e07_es_termination.run,
    "E8": e08_es_safety.run,
    "E9": e09_latency.run,
    "E10": e10_baseline_comparison.run,
    "E11": e11_churn_cap.run,
    "E12": e12_burst_churn.run,
    "E13": e13_keyed_store.run,
    "E14": e14_sharded_cluster.run,
    "E15": e15_migration.run,
    "E16": e16_rebalance.run,
    "E17": e17_population_scaling.run,
}


__all__ = [
    "ABLATIONS",
    "EXPERIMENTS",
    "ExperimentResult",
    "format_table",
]
