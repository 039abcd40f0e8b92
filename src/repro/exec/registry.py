"""Cell-kind registry: spec kinds resolve to module-level functions.

The registry is a static table mapping each kind to a
``"module:function"`` entry point.  Resolution is lazy (the module is
imported on first use, in whichever process executes the spec), so
worker processes need no registration side effects — unpickling a
:class:`~repro.exec.spec.RunSpec` carries only the kind string.

A kind not present in the table may itself be written in
``"module:function"`` form; this keeps ad-hoc cells (tests, one-off
sweeps) usable without editing the table.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from ..sim.errors import ExperimentError

#: kind -> "module:function".  Every cell function takes only plain
#: keyword arguments (the spec's params) and returns a picklable value.
ENTRY_POINTS: dict[str, str] = {
    "scenario": "repro.workloads.explorer:scenario_cell",
    "e01": "repro.experiments.e01_new_old_inversion:cell",
    "e02": "repro.experiments.e02_figure3a:cell",
    "e03": "repro.experiments.e03_figure3b:cell",
    "e04": "repro.experiments.e04_lemma2:cell",
    "e05": "repro.experiments.e05_sync_sweep:cell",
    "e06a": "repro.experiments.e06_impossibility:horn_a_cell",
    "e06b": "repro.experiments.e06_impossibility:horn_b_cell",
    "e07": "repro.experiments.e07_es_termination:cell",
    "e08": "repro.experiments.e08_es_safety:cell",
    "e09": "repro.experiments.e09_latency:cell",
    "e10": "repro.experiments.e10_baseline_comparison:cell",
    "e11": "repro.experiments.e11_churn_cap:cell",
    "e12": "repro.experiments.e12_burst_churn:cell",
    "e13": "repro.experiments.e13_keyed_store:cell",
    "e14": "repro.experiments.e14_sharded_cluster:cell",
    "e15": "repro.experiments.e15_migration:cell",
    "e16": "repro.experiments.e16_rebalance:cell",
    "e17": "repro.experiments.e17_population_scaling:cell",
}

#: Resolved callables, cached per process.
_RESOLVED: dict[str, Callable[..., Any]] = {}


def resolve(kind: str) -> Callable[..., Any]:
    """Return the cell function a spec kind names.

    Raises :class:`ExperimentError` for an unknown kind or an entry
    point that does not import to a callable.
    """
    cached = _RESOLVED.get(kind)
    if cached is not None:
        return cached
    entry = ENTRY_POINTS.get(kind, kind)
    module_name, _, attr = entry.partition(":")
    if not module_name or not attr:
        raise ExperimentError(
            f"unknown cell kind {kind!r}; registered kinds: "
            f"{', '.join(sorted(ENTRY_POINTS))} (or use 'module:function')"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ExperimentError(
            f"cell kind {kind!r} names unimportable module {module_name!r}: {error}"
        ) from error
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise ExperimentError(
            f"cell kind {kind!r} entry point {entry!r} is not a callable"
        )
    _RESOLVED[kind] = fn
    return fn
