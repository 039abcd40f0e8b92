"""Experiments: one declaration per figure/lemma/theorem of the paper.

Each module declares its claim as an
:class:`~repro.experiments.harness.Experiment` row (``ablations``
declares six) and :data:`EXPERIMENTS` holds them in one ordered table —
E1–E17 in paper order, then the ablations A1–A6.  ``run(EXPERIMENTS[id],
seed, quick, workers)`` regenerates any row; ``repro experiments`` runs
the battery from the table.

Every row builds its sweep as a grid of :class:`repro.exec.RunSpec`
cells executed through the shared engine: ``workers`` processes run
cells concurrently (default: all cores) and the resulting tables are
byte-identical at any worker count, because each cell's seed is derived
from the root seed and the cell's grid coordinates — never from
execution order.
"""

from __future__ import annotations

from . import (
    ablations,
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
from .harness import Experiment, ExperimentResult, format_table, run

#: The battery: experiment id -> declaration, E1–E17 then A1–A6.
EXPERIMENTS: dict[str, Experiment] = {
    experiment.id: experiment
    for experiment in (
        e01_new_old_inversion.EXPERIMENT,
        e02_figure3a.EXPERIMENT,
        e03_figure3b.EXPERIMENT,
        e04_lemma2.EXPERIMENT,
        e05_sync_sweep.EXPERIMENT,
        e06_impossibility.EXPERIMENT,
        e07_es_termination.EXPERIMENT,
        e08_es_safety.EXPERIMENT,
        e09_latency.EXPERIMENT,
        e10_baseline_comparison.EXPERIMENT,
        e11_churn_cap.EXPERIMENT,
        e12_burst_churn.EXPERIMENT,
        e13_keyed_store.EXPERIMENT,
        e14_sharded_cluster.EXPERIMENT,
        e15_migration.EXPERIMENT,
        e16_rebalance.EXPERIMENT,
        e17_population_scaling.EXPERIMENT,
        ablations.A1,
        ablations.A2,
        ablations.A3,
        ablations.A4,
        ablations.A5,
        ablations.A6,
    )
}


__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
    "format_table",
    "run",
]
