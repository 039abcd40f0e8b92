"""The execution engine's headline guarantee, asserted end to end:

``--workers N`` output is **byte-identical** to ``--workers 1``.

Two consumers are exercised over pinned seeds: the adversarial
explorer (full ``ExplorationReport`` JSON, shrinking included) and an
experiment grid (full ``describe()`` rendering — rows, notes and
verdict).  Equality is asserted on the serialized artifacts, not on
summaries, so any ordering or seed-derivation regression in the
parallel path shows up as a diff, not a statistic.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import EXPERIMENTS, run
from repro.workloads.explorer import explore

#: Enough workers to genuinely exercise the pool on any host.
WORKERS = 4

EXPLORE_KWARGS = dict(
    budget=8,
    protocol=("sync",),
    delay=("sync",),
    churn_rate=(0.0, 0.02),
    plan=("none", "light-loss", "heavy-loss", "writer-crash"),
    seeds_per_combo=1,
    n=8,
    delta=5.0,
    horizon=80.0,
    shrink=True,  # violating cells exercise shrink + re-judge too
)


@pytest.mark.parametrize("seed", [0, 11])
def test_explore_report_is_byte_identical_across_worker_counts(seed):
    serial = explore(seed=seed, workers=1, **EXPLORE_KWARGS)
    parallel = explore(seed=seed, workers=WORKERS, **EXPLORE_KWARGS)
    serial_blob = json.dumps(serial.to_dict(), sort_keys=True)
    parallel_blob = json.dumps(parallel.to_dict(), sort_keys=True)
    assert serial_blob == parallel_blob


def _describe_at_both_worker_counts(experiment_id, seed):
    experiment = EXPERIMENTS[experiment_id]
    serial = run(experiment, seed=seed, quick=True, workers=1)
    parallel = run(experiment, seed=seed, quick=True, workers=WORKERS)
    return serial.describe(), parallel.describe()


# E4's churn grid, and the ablations, whose variants are cells of the
# pool like any E-row's.
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("experiment_id", ["E4", "A1", "A2", "A3", "A4", "A5", "A6"])
def test_experiment_grid_is_byte_identical_across_worker_counts(experiment_id, seed):
    serial, parallel = _describe_at_both_worker_counts(experiment_id, seed)
    assert serial == parallel


def test_multi_row_cells_keep_row_order():
    # E9's cells each return several rows; interleaving would reorder
    # the table if the engine ever yielded by completion time.
    serial, parallel = _describe_at_both_worker_counts("E9", 0)
    assert serial == parallel


def test_e14_sharded_cluster_is_byte_identical_across_worker_counts():
    # The E14 acceptance criterion: cluster cells (multi-system runs on
    # one shared scheduler, shard-derived seeds) must be exactly as
    # worker-count-independent as single-system cells.
    serial, parallel = _describe_at_both_worker_counts("E14", 0)
    assert serial == parallel


def test_explore_sharded_cells_byte_identical_across_worker_counts():
    kwargs = dict(
        budget=6,
        protocol=("sync",),
        delay=("sync",),
        churn_rate=(0.02,),
        plan=("none", "heavy-loss"),
        seeds_per_combo=1,
        n=12,
        delta=5.0,
        horizon=80.0,
        shrink=True,
        keys=(4,),
        key_dist="zipf",
        shards=(1, 3),
    )
    serial = explore(seed=3, workers=1, **kwargs)
    parallel = explore(seed=3, workers=WORKERS, **kwargs)
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )
