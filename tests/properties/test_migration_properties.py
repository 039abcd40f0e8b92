"""Migration transparency: a migrated key is as correct as a static one.

The acceptance property of live resharding: running the same keyed
workload with a handoff scheduled mid-run must leave the cluster
exactly as checkable as the control run without one — safe in fast and
paranoid modes, live, with zero stuck operations — and that must hold
when the handoff is attacked at *every* phase (crash at each migration
message type, total coordination loss).  Reads are judged with full
value certification everywhere; only join snapshots on the handoff
shards are excused (a keyless join's default slot stops being a
function of the shard's own history once a key crosses the seam).
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.cluster.checker import (
    check_cluster_liveness,
    check_cluster_safety,
    find_cluster_inversions,
)
from repro.faults.plan import CrashFault, FaultPlan, LossFault
from repro.protocols.common import MIGRATION_PAYLOADS
from repro.workloads.cluster import shard_skewed_key_picker
from repro.workloads.generators import assign_keys, read_heavy_plan
from repro.workloads.schedule import WorkloadDriver

HORIZON = 150.0


def run_cluster(
    seed: int,
    migrate: bool,
    plan: FaultPlan | None = None,
    churn: float = 0.0,
    shards: int = 3,
    keys: int = 6,
    n: int = 18,
) -> tuple[ClusterSystem, list]:
    cluster = ClusterSystem(
        ClusterConfig(shards=shards, keys=keys, n=n, delta=5.0, seed=seed)
    )
    if plan is not None:
        cluster.install_faults(plan, scope_pids=False)
    if churn > 0:
        cluster.attach_churn(rate=churn, min_stay=15.0)
    records = []
    if migrate:
        for j, key in enumerate(cluster.keys[:2]):
            dest = (cluster.shard_of(key) + 1) % shards
            records.append(
                cluster.schedule_migration(
                    key, dest, at=30.0 + 25.0 * j, max_retries=1
                )
            )
    driver = WorkloadDriver(cluster)
    workload = read_heavy_plan(
        start=5.0,
        end=HORIZON - 20.0,
        write_period=10.0,
        read_rate=1.0,
        rng=cluster.rng.stream("prop.mig.plan"),
    )
    workload = assign_keys(
        workload,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream("prop.mig.skew"), distribution="uniform"
        ),
    )
    driver.install(workload)
    cluster.run_until(HORIZON)
    cluster.close()
    return cluster, records


def assert_fully_checkable(cluster: ClusterSystem) -> None:
    for paranoid in (False, True):
        report = check_cluster_safety(cluster.history, paranoid=paranoid)
        assert report.is_safe, [str(v) for v in report.violations[:3]]
        assert report.checked_count > 0
        assert find_cluster_inversions(
            cluster.history, paranoid=paranoid
        ).safety.is_safe
    liveness = check_cluster_liveness(cluster.history, grace=50.0)
    assert not liveness.stuck


CRASH_PHASES = ("MigFetch", "MigFetchReply", "MigInstall", "MigAck")


class TestMigrationTransparency:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_migrated_run_matches_unmigrated_control_verdicts(self, seed):
        control, _ = run_cluster(seed, migrate=False)
        migrated, records = run_cluster(seed, migrate=True)
        assert all(r.committed for r in records)
        assert_fully_checkable(control)
        assert_fully_checkable(migrated)
        # Same verdict surface: the handoff changed *where* operations
        # ran, never whether they are justified.
        for paranoid in (False, True):
            a = check_cluster_safety(control.history, paranoid=paranoid)
            b = check_cluster_safety(migrated.history, paranoid=paranoid)
            assert a.is_safe == b.is_safe
            assert not a.violations and not b.violations

    @pytest.mark.parametrize("seed", [0, 1])
    def test_transparent_under_churn(self, seed):
        migrated, records = run_cluster(seed, migrate=True, churn=0.02)
        assert all(r.finished for r in records)
        assert_fully_checkable(migrated)


class TestCrashAtEveryPhase:
    @pytest.mark.parametrize("phase", CRASH_PHASES)
    @pytest.mark.parametrize("occurrence", [1, 2])
    def test_crash_at_each_phase_resolves_and_stays_safe(
        self, phase, occurrence
    ):
        plan = FaultPlan.of(
            CrashFault(phase=phase, victim="dest", occurrence=occurrence),
            name=f"crash-{phase}-{occurrence}",
        )
        cluster, records = run_cluster(0, migrate=True, plan=plan)
        for record in records:
            assert record.finished, (
                f"crash at {phase} #{occurrence} left the handoff of "
                f"{record.key!r} stuck in phase {record.phase!r}"
            )
            # Exactly one owner either way.
            owner = cluster.shard_of(record.key)
            assert owner == (record.dest if record.committed else record.source)
        assert_fully_checkable(cluster)


class TestAbortPath:
    def test_total_coordination_loss_is_a_clean_abort(self):
        plan = FaultPlan.of(
            LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS),
            name="mig-loss",
        )
        cluster, records = run_cluster(0, migrate=True, plan=plan)
        assert records and all(r.aborted for r in records)
        for record in records:
            assert cluster.shard_of(record.key) == record.source
        assert cluster.map_version == 0
        assert_fully_checkable(cluster)
