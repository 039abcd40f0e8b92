"""Unit tests for live key migration: freeze, copy, install, flip, drain."""

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.faults.plan import CrashFault, FaultPlan, LossFault
from repro.protocols.common import MIGRATION_PAYLOADS
from repro.sim.errors import ConfigError
from repro.workloads.cluster import shard_skewed_key_picker
from repro.workloads.generators import assign_keys, read_heavy_plan
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import read_on_owner


def make_cluster(**overrides) -> ClusterSystem:
    params = dict(shards=3, keys=6, n=18, delta=5.0, seed=7)
    params.update(overrides)
    return ClusterSystem(ClusterConfig(**params))


class TestScheduling:
    def test_single_register_cluster_cannot_migrate(self):
        cluster = ClusterSystem(ClusterConfig(shards=2, keys=1, n=8, seed=1))
        with pytest.raises(ConfigError):
            cluster.schedule_migration(cluster.keys[0], 1, at=10.0)

    def test_dest_shard_must_exist(self):
        cluster = make_cluster()
        with pytest.raises(
            ConfigError, match=r"destination shard 3 out of range \[0, 3\)"
        ):
            cluster.schedule_migration(cluster.keys[0], 3, at=10.0)
        with pytest.raises(
            ConfigError, match=r"destination shard -1 out of range \[0, 3\)"
        ):
            cluster.schedule_migration(cluster.keys[0], -1, at=10.0)

    def test_migration_ids_are_deterministic_counters(self):
        cluster = make_cluster()
        cluster.schedule_migration(cluster.keys[0], 0, at=10.0)
        cluster.schedule_migration(cluster.keys[1], 0, at=20.0)
        assert [m.migration_id for m in cluster.migrations] == [1, 2]

    def test_migrating_to_the_current_owner_aborts_as_noop(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        record = cluster.schedule_migration(key, cluster.shard_of(key), at=10.0)
        cluster.run_until(30.0)
        assert record.aborted and record.reason == "noop"
        assert not cluster.is_frozen(key)


class TestCommit:
    def test_clean_handoff_commits_and_flips_routing(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        source = cluster.shard_of(key)
        dest = (source + 1) % 3
        record = cluster.schedule_migration(key, dest, at=20.0)
        cluster.write("before", key=key)
        cluster.run_until(60.0)
        assert record.committed and not record.aborted
        assert record.phase == "committed"
        assert record.source == source and record.dest == dest
        assert cluster.shard_of(key) == dest
        assert cluster.map_version == 1
        assert record.map_version == 1
        assert record.latency is not None and record.latency > 0
        # The flip is logged for the seam checkers and the digest.
        assert [entry[1:] for entry in cluster.ownership_log] == [
            (key, source, dest, 1)
        ]

    def test_installed_value_is_readable_at_the_destination(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        dest = (cluster.shard_of(key) + 1) % 3
        cluster.write("payload", key=key)
        cluster.run_for(15.0)
        cluster.schedule_migration(key, dest, at=20.0)
        cluster.run_until(60.0)
        read = read_on_owner(cluster, key)
        cluster.run_for(1.0)
        assert read.done and read.result == "payload"
        assert read.shard == dest

    def test_writes_during_freeze_defer_and_drain_to_new_owner(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        dest = (cluster.shard_of(key) + 1) % 3
        record = cluster.schedule_migration(key, dest, at=20.0)
        cluster.run_until(21.0)
        assert cluster.is_frozen(key)
        deferred = cluster.write("during-freeze", key=key)
        assert deferred is None  # queued, not issued
        cluster.run_until(80.0)
        assert record.committed
        assert record.deferred_writes == 1
        read = read_on_owner(cluster, key)
        cluster.run_for(1.0)
        assert read.result == "during-freeze"
        assert read.shard == dest

    @pytest.mark.parametrize("seed", range(6))
    def test_a_migration_scheduled_mid_run_commits_and_stays_regular(self, seed):
        """The front door serializes every write from the start, so a
        handoff may be planned while the run is already under way."""
        cluster = make_cluster(seed=seed)
        cluster.attach_churn(rate=0.02, min_stay=15.0)
        driver = WorkloadDriver(cluster)
        plan = read_heavy_plan(
            start=5.0, end=100.0, write_period=10.0, read_rate=1.0,
            rng=cluster.rng.stream("t.midrun.plan"),
        )
        driver.install(assign_keys(
            plan, shard_skewed_key_picker(cluster, cluster.rng.stream("t.midrun.keys"))
        ))
        cluster.run_until(40.0)
        key = cluster.keys[0]
        dest = (cluster.shard_of(key) + 1) % 3
        record = cluster.schedule_migration(key, dest, at=45.0)
        cluster.run_until(130.0)
        assert record.committed
        assert cluster.shard_of(key) == dest
        assert driver.stats.writes_issued > 0
        assert cluster.check_safety().is_safe

    def test_second_migration_of_same_key_waits_for_the_first(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        source = cluster.shard_of(key)
        first = cluster.schedule_migration(key, (source + 1) % 3, at=20.0)
        second = cluster.schedule_migration(key, (source + 2) % 3, at=21.0)
        cluster.run_until(120.0)
        assert first.committed and second.committed
        assert cluster.shard_of(key) == (source + 2) % 3
        assert cluster.map_version == 2

    def test_retry_after_a_lost_fetch_round_still_commits(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        dest = (cluster.shard_of(key) + 1) % 3
        # Eat every fetch reply during the first round only; the retry
        # re-polls and must converge (idempotent re-copy).
        cluster.install_faults(
            FaultPlan.of(
                LossFault(
                    probability=1.0,
                    payload_types=frozenset({"MigFetchReply"}),
                    start=0.0,
                    end=30.0,
                ),
                name="first-round-loss",
            ),
            scope_pids=False,
        )
        record = cluster.schedule_migration(key, dest, at=20.0)
        cluster.run_until(120.0)
        assert record.committed
        assert record.retries >= 1
        assert cluster.shard_of(key) == dest


class TestAbort:
    def test_total_coordination_loss_aborts_with_ownership_restored(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        source = cluster.shard_of(key)
        cluster.install_faults(
            FaultPlan.of(
                LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS),
                name="mig-loss",
            ),
            scope_pids=False,
        )
        record = cluster.schedule_migration(key, (source + 1) % 3, at=20.0)
        cluster.run_until(150.0)
        assert record.aborted and record.reason == "copy-timeout"
        assert cluster.shard_of(key) == source
        assert cluster.map_version == 0
        assert not cluster.is_frozen(key)

    def test_deferred_writes_drain_to_source_after_abort(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        source = cluster.shard_of(key)
        cluster.install_faults(
            FaultPlan.of(
                LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS),
                name="mig-loss",
            ),
            scope_pids=False,
        )
        record = cluster.schedule_migration(key, (source + 1) % 3, at=20.0)
        cluster.run_until(25.0)
        assert cluster.write("queued", key=key) is None
        cluster.run_until(150.0)
        assert record.aborted
        read = read_on_owner(cluster, key)
        cluster.run_for(1.0)
        assert read.result == "queued"
        assert read.shard == source

    def test_source_agent_crash_mid_copy_aborts_cleanly(self):
        cluster = make_cluster(seed=2)
        key = cluster.keys[1]
        source = cluster.shard_of(key)
        cluster.install_faults(
            FaultPlan.of(
                CrashFault(phase="MigFetchReply", victim="dest"),
                name="mig-crash-copy",
            ),
            scope_pids=False,
        )
        record = cluster.schedule_migration(key, (source + 1) % 3, at=20.0)
        cluster.run_until(150.0)
        assert record.aborted
        assert cluster.shard_of(key) == source
        assert not cluster.is_frozen(key)

    def test_dest_replica_crash_mid_install_still_commits(self):
        # A destination node departing at its MigInstall delivery stops
        # counting toward coverage (departed pids need no ack), so the
        # handoff commits without it.
        cluster = make_cluster(seed=3)
        key = cluster.keys[0]
        dest = (cluster.shard_of(key) + 1) % 3
        cluster.install_faults(
            FaultPlan.of(
                CrashFault(phase="MigInstall", victim="dest", occurrence=2),
                name="mig-crash-install",
            ),
            scope_pids=False,
        )
        record = cluster.schedule_migration(key, dest, at=20.0)
        cluster.run_until(150.0)
        assert record.committed
        assert cluster.shard_of(key) == dest


class TestElasticFrontDoor:
    def test_elastic_values_are_cluster_unique(self):
        cluster = make_cluster()
        cluster.schedule_migration(cluster.keys[0], 0, at=200.0)
        values = [cluster.next_value() for _ in range(3)]
        assert values == ["w1", "w2", "w3"]

    def test_history_records_migrations_and_digest_covers_them(self):
        from repro.cluster import cluster_digest

        a = make_cluster()
        key = a.keys[0]
        dest = (a.shard_of(key) + 1) % 3
        a.schedule_migration(key, dest, at=20.0)
        a.run_until(80.0)
        history = a.close()
        assert len(history.migrations) == 1
        assert history.migrated_keys == frozenset({key})
        assert history.migration_shards == {a.shard_of(key), dest} | {
            r.source for r in history.migrations
        }
        # Same run, same digest; a non-migrating run digests differently.
        b = make_cluster()
        b.schedule_migration(key, dest, at=20.0)
        b.run_until(80.0)
        assert cluster_digest(b.close()) == cluster_digest(history)


class TestDeferredQueueDepth:
    def test_deep_queue_against_a_crashed_writer_drains_iteratively(self):
        """Regression: draining a deferred-write queue used to recurse
        once per dropped value, so a few thousand writes queued behind a
        frozen key whose owner lost its writer blew the recursion limit
        mid-run.  The drain is a loop now: every value drops in the same
        frame and the queue empties no matter how deep it got."""
        depth = 3000
        cluster = make_cluster()
        key = cluster.keys[0]
        shard = cluster.shard_for(key)
        cluster._freeze(key)
        for _ in range(depth):
            assert cluster.write(key=key) is None  # queued behind the freeze
        assert cluster.writes_deferred == depth
        shard.leave(shard.writer_pid)
        cluster._frozen_keys.discard(key)
        cluster._drain_queue(key)  # recursed pre-fix: RecursionError here
        assert cluster.writes_dropped == depth
        assert not cluster._write_queues.get(key)

    def test_drain_resumes_issuing_once_a_live_value_heads_the_queue(self):
        """The iterative drain must still stop at the first value it can
        actually issue — dropping is the exceptional path, not the loop's
        purpose."""
        cluster = make_cluster()
        key = cluster.keys[0]
        cluster._freeze(key)
        for _ in range(5):
            cluster.write(key=key)
        cluster._frozen_keys.discard(key)
        cluster._drain_queue(key)  # writer alive: issues exactly one
        assert cluster.writes_dropped == 0
        assert len(cluster._write_queues[key]) == 4
        cluster.run_until(40.0)  # the rest chain out as each settles
        assert not cluster._write_queues.get(key)
        assert cluster.writes_dropped == 0
