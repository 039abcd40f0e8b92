"""Merged-cluster checking ≡ per-shard single-system checking.

The acceptance property of the ShardedCluster refactor: judging a
cluster's *merged* history (``check_cluster_safety`` and friends,
which reconstruct per-shard views from the merge) must produce exactly
the verdicts of running each shard's own recorded history through the
unchanged single-system checkers — same judgements, same allowed
sets, same inversions, same liveness accounting — on randomized
multi-shard churn histories, in both fast and paranoid modes.  The
two paths share no filtering code: the merge flattens every shard's
operations into one globally ordered list and partitions it back by
shard stamp, while the reference path never leaves the shard.

A violating cluster (total write-dissemination loss injected into one
shard) additionally pins violation *localization*: the merged verdict
attributes every bad read to the faulted shard.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, ClusterSystem, cluster_digest
from repro.cluster.checker import (
    check_cluster_liveness,
    check_cluster_safety,
    find_cluster_inversions,
)
from repro.core.checker import (
    LivenessChecker,
    RegularityChecker,
    find_new_old_inversions,
)
from repro.faults.plan import FaultPlan, LossFault
from repro.workloads.cluster import shard_skewed_key_picker
from repro.workloads.generators import assign_keys, read_heavy_plan
from repro.workloads.schedule import WorkloadDriver


def run_cluster(
    protocol: str,
    seed: int,
    shards: int,
    keys: int,
    churn: float,
    skew: str = "zipf",
    faulted_shard: int | None = None,
    n: int = 12,
    horizon: float = 120.0,
) -> ClusterSystem:
    cluster = ClusterSystem(
        ClusterConfig(
            shards=shards, keys=keys, n=n, delta=5.0, protocol=protocol, seed=seed
        )
    )
    if faulted_shard is not None:
        # Eat every write dissemination inside one shard: its readers
        # keep serving stale values after the write completes.
        cluster.install_faults(
            FaultPlan.of(
                LossFault(probability=1.0, payload_types=frozenset({"WriteMsg"})),
                name="eat-writes",
            ),
            shards=[faulted_shard],
        )
    if churn > 0:
        cluster.attach_churn(rate=churn, min_stay=15.0)
    driver = WorkloadDriver(cluster)
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 20.0,
        write_period=10.0,
        read_rate=1.5,
        rng=cluster.rng.stream("prop.plan"),
    )
    plan = assign_keys(
        plan,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream("prop.skew"), distribution=skew
        ),
    )
    driver.install(plan)
    cluster.run_until(horizon)
    cluster.close()
    return cluster


def judgement_fingerprint(report) -> list[tuple]:
    return [
        (j.operation.op_id, getattr(j.operation, "key", None), j.returned,
         tuple(j.allowed), j.valid, j.last_completed_index)
        for j in report.judgements
    ]


def inversion_fingerprint(report) -> list[tuple]:
    return [
        (inv.earlier.op_id, inv.later.op_id,
         inv.earlier_write_index, inv.later_write_index)
        for inv in report.inversions
    ]


CASES = [
    ("sync", 0, 2, 4, 0.03, "zipf"),
    ("sync", 1, 4, 8, 0.05, "uniform"),
    ("sync", 2, 3, 2, 0.0, "zipf"),  # fewer keys than shards: idle shards
    ("es", 3, 2, 4, 0.004, "zipf"),
    ("es", 4, 3, 6, 0.0, "uniform"),
    ("abd", 5, 2, 4, 0.0, "zipf"),
]


class TestClusterCheckerEquivalence:
    @pytest.mark.parametrize("protocol,seed,shards,keys,churn,skew", CASES)
    @pytest.mark.parametrize("paranoid", [False, True])
    def test_merged_safety_equals_per_shard_checking(
        self, protocol, seed, shards, keys, churn, skew, paranoid
    ):
        cluster = run_cluster(protocol, seed, shards, keys, churn, skew)
        merged = check_cluster_safety(cluster.history, paranoid=paranoid)
        reference = []
        for shard in cluster.shards:
            report = RegularityChecker(shard.history, paranoid=paranoid).check()
            reference.extend(judgement_fingerprint(report))
        assert judgement_fingerprint(merged) == reference
        assert merged.checked_count == len(reference)

    @pytest.mark.parametrize("protocol,seed,shards,keys,churn,skew", CASES)
    @pytest.mark.parametrize("paranoid", [False, True])
    def test_merged_atomicity_equals_per_shard_checking(
        self, protocol, seed, shards, keys, churn, skew, paranoid
    ):
        cluster = run_cluster(protocol, seed, shards, keys, churn, skew)
        merged = find_cluster_inversions(cluster.history, paranoid=paranoid)
        reference_inversions = []
        reference_safe = True
        for shard in cluster.shards:
            report = find_new_old_inversions(shard.history, paranoid=paranoid)
            reference_safe = reference_safe and report.safety.is_safe
            reference_inversions.extend(inversion_fingerprint(report))
        assert merged.safety.is_safe == reference_safe
        assert inversion_fingerprint(merged) == reference_inversions

    @pytest.mark.parametrize("protocol,seed,shards,keys,churn,skew", CASES)
    def test_merged_liveness_equals_per_shard_checking(
        self, protocol, seed, shards, keys, churn, skew
    ):
        cluster = run_cluster(protocol, seed, shards, keys, churn, skew)
        merged = check_cluster_liveness(cluster.history, grace=50.0)
        completed = excused = in_grace = 0
        stuck_ids = []
        for shard in cluster.shards:
            report = LivenessChecker(shard.history, grace=50.0).check()
            completed += report.completed
            excused += report.excused
            in_grace += report.in_grace
            stuck_ids.extend(s.operation.op_id for s in report.stuck)
        assert merged.completed == completed
        assert merged.excused == excused
        assert merged.in_grace == in_grace
        assert [s.operation.op_id for s in merged.stuck] == stuck_ids

    @pytest.mark.parametrize("protocol,seed,shards,keys,churn,skew", CASES)
    def test_cluster_digest_reproducible(
        self, protocol, seed, shards, keys, churn, skew
    ):
        a = run_cluster(protocol, seed, shards, keys, churn, skew)
        b = run_cluster(protocol, seed, shards, keys, churn, skew)
        assert cluster_digest(a.history) == cluster_digest(b.history)


class TestViolationLocalization:
    @pytest.mark.parametrize("paranoid", [False, True])
    def test_faulted_shard_owns_every_violation(self, paranoid):
        """Total write loss in shard 1: the merged verdict must refute
        safety, attribute every bad read to shard 1, and agree exactly
        with checking shard 1's own history."""
        faulted = 1
        cluster = run_cluster(
            "sync", 6, 3, 6, churn=0.0, skew="uniform", faulted_shard=faulted
        )
        merged = check_cluster_safety(cluster.history, paranoid=paranoid)
        assert not merged.is_safe, (
            "eating every WriteMsg must leave stale reads behind"
        )
        assert {j.operation.shard for j in merged.violations} == {faulted}
        reference = RegularityChecker(
            cluster.shards[faulted].history, paranoid=paranoid
        ).check()
        assert [
            (j.operation.op_id, j.valid) for j in merged.violations
        ] == [(j.operation.op_id, j.valid) for j in reference.violations]
        # Every other shard is clean by itself.
        for index, shard in enumerate(cluster.shards):
            if index != faulted:
                assert RegularityChecker(shard.history).check().is_safe
