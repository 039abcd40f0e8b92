"""Experiments: one module per figure/lemma/theorem of the paper.

See the per-experiment index in ``DESIGN.md``.  Each module exposes
``run(seed=0, quick=False, ..., workers=None) -> ExperimentResult``;
``run_all`` executes the whole battery (used by
``examples/reproduce_paper.py`` and by ``EXPERIMENTS.md`` generation).

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


def run_all(
    seed: int = 0,
    quick: bool = False,
    ablations: bool = False,
    workers: int | None = None,
) -> list[ExperimentResult]:
    """Run every experiment (optionally plus ablations), in paper order.

    ``workers`` is forwarded to each experiment's grid (default: all
    cores); the battery itself stays sequential so experiment output
    order is stable.
    """
    battery = dict(EXPERIMENTS)
    if ablations:
        battery.update(ABLATIONS)
    return [
        runner(seed=seed, quick=quick, workers=workers)
        for runner in battery.values()
    ]


__all__ = [
    "ABLATIONS",
    "EXPERIMENTS",
    "ExperimentResult",
    "format_table",
    "run_all",
]
