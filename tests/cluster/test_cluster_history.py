"""Edge-case tests for :class:`repro.cluster.history.ClusterHistory`.

The satellite checklist cases: empty shards, a shard with only joins,
all operations landing on one shard — plus the merge/partition round
trip and digest semantics those cases stress.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterSystem, cluster_digest
from repro.cluster.checker import (
    check_cluster_liveness,
    check_cluster_safety,
    find_cluster_inversions,
)
from repro.cluster.history import ClusterHistory
from repro.core.history import History
from repro.sim.errors import HistoryError


class TestEmptyShards:
    def test_cluster_with_idle_shards_checks_clean(self):
        """Shards that own no key (keys < shards) serve nothing."""
        cluster = ClusterSystem(ClusterConfig(shards=6, keys=2, n=12, seed=3))
        for key in cluster.keys:
            cluster.write(key=key)
        cluster.run_for(30.0)
        history = cluster.close()
        populated = {cluster.shard_of(key) for key in cluster.keys}
        for shard in history.shard_ids():
            ops = history.shard_view(shard)
            if shard not in populated:
                assert len(ops) == 0
        assert check_cluster_safety(history).is_safe
        assert find_cluster_inversions(history).is_atomic
        assert check_cluster_liveness(history, grace=30.0).is_live

    def test_wholly_empty_cluster_history(self):
        """A run with no operations at all still merges and judges."""
        cluster = ClusterSystem(ClusterConfig(shards=3, keys=3, n=6, seed=0))
        cluster.run_for(10.0)
        history = cluster.close()
        assert len(history) == 0
        assert list(history) == []
        report = check_cluster_safety(history)
        assert report.is_safe and report.checked_count == 0

    def test_no_shards_rejected(self):
        with pytest.raises(HistoryError):
            ClusterHistory([])


class TestJoinOnlyShard:
    def test_shard_with_only_joins_judges_adoptions(self):
        """Churn on an unaddressed shard: its history is joins only."""
        cluster = ClusterSystem(ClusterConfig(shards=2, keys=1, n=10, seed=4))
        idle = 1 - cluster.shard_of(cluster.keys[0])
        cluster.shards[idle].spawn_joiner()
        cluster.run_for(30.0)
        history = cluster.close()
        view = history.shard_view(idle)
        assert len(view.joins()) == 1
        assert not view.reads() and not view.writes()
        # The join's adoption (of the initial value) is still judged.
        report = check_cluster_safety(history)
        assert report.is_safe
        assert any(j.is_join for j in report.judgements)


class TestSingleHotShard:
    def test_all_operations_on_one_shard(self):
        """Total skew: every key addressed belongs to one shard."""
        cluster = ClusterSystem(ClusterConfig(shards=4, keys=8, n=16, seed=7))
        hot = cluster.shard_of(cluster.keys[0])
        hot_keys = cluster.keys_of_shard(hot)
        for key in hot_keys:
            cluster.write(key=key)
        cluster.run_for(25.0)
        for key in hot_keys:
            cluster.read(key=key)
        cluster.run_for(25.0)
        history = cluster.close()
        for shard in history.shard_ids():
            view = history.shard_view(shard)
            expected = 2 * len(hot_keys) if shard == hot else 0
            assert len(view.reads()) + len(view.writes()) == expected
        assert check_cluster_safety(history).is_safe
        assert check_cluster_safety(history, paranoid=True).is_safe


class TestMergeSemantics:
    def _run(self, seed=9):
        cluster = ClusterSystem(ClusterConfig(shards=3, keys=6, n=9, seed=seed))
        for key in cluster.keys:
            cluster.write(key=key)
        cluster.run_for(20.0)
        for key in cluster.keys:
            cluster.read(key=key)
        cluster.run_for(20.0)
        return cluster, cluster.close()

    def test_merge_is_in_global_invocation_order(self):
        _, history = self._run()
        merged = history.merged_operations()
        assert [op.invoke_time for op in merged] == sorted(
            op.invoke_time for op in merged
        )
        assert len(merged) == len(history)

    def test_every_operation_is_shard_stamped(self):
        cluster, history = self._run()
        for op in history:
            assert op.shard is not None
            assert op.process_id.startswith(f"s{op.shard}.p")

    def test_shard_view_round_trip(self):
        """Partitioning the merge recovers each shard's own record."""
        cluster, history = self._run()
        for index, shard in enumerate(cluster.shards):
            view = history.shard_view(index)
            assert [op.op_id for op in view] == [
                op.op_id for op in shard.history
            ]
            assert view.horizon == shard.history.horizon

    def test_operations_kind_filter_and_keys(self):
        cluster, history = self._run()
        assert len(history.operations("write")) == 6
        assert len(history.operations("read")) == 6
        addressed = set().union(*(shard.history.keys() for shard in cluster.shards))
        assert addressed == set(cluster.keys)

    def test_cluster_digest_covers_the_shard_dimension(self):
        """Two single-shard histories with identical content but
        different shard stamps must digest differently."""
        a = History("v0", shard=0)
        b = History("v0", shard=1)
        mono_a = ClusterHistory([a])
        mono_b = ClusterHistory([b])
        from repro.sim.operations import OperationHandle

        for hist in (a, b):
            op = OperationHandle("read", "s0.p0001", 1.0)
            hist.record_operation(op)
            op._complete("v0", 2.0)
            hist.close(5.0)
        assert cluster_digest(mono_a) != cluster_digest(mono_b)

    def test_cluster_digest_stable_across_identical_runs(self):
        _, history_a = self._run(seed=12)
        _, history_b = self._run(seed=12)
        assert cluster_digest(history_a) == cluster_digest(history_b)


class TestMigrationSeam:
    """A committed handoff splits one key's record across two shards."""

    def _migrated(self, seed=11):
        cluster = ClusterSystem(
            ClusterConfig(shards=3, keys=6, n=18, seed=seed)
        )
        key = cluster.keys[0]
        source = cluster.shard_of(key)
        dest = (source + 1) % 3
        cluster.write("pre", key=key)
        cluster.run_for(15.0)
        cluster.schedule_migration(key, dest, at=20.0)
        cluster.run_until(60.0)
        cluster.write("post", key=key)
        cluster.run_for(15.0)
        cluster.read(key=key)
        cluster.run_for(5.0)
        return cluster, cluster.close(), key, source, dest

    def test_migrated_keys_and_shards_are_recorded(self):
        _, history, key, source, dest = self._migrated()
        assert history.migrated_keys == frozenset({key})
        assert history.migration_shards == frozenset({source, dest})
        assert len(history.migrations) == 1
        assert history.migrations[0].committed

    def test_unmigrated_run_records_no_seam(self):
        cluster, history = TestMergeSemantics()._run()
        assert history.migrated_keys == frozenset()
        assert history.migration_shards == frozenset()

    def test_shard_views_exclude_the_migrated_key(self):
        _, history, key, source, dest = self._migrated()
        for shard in history.shard_ids():
            assert all(
                getattr(op, "key", None) != key
                for op in history.shard_view(shard)
            )

    def test_seam_view_stitches_both_sides_in_order(self):
        _, history, key, source, dest = self._migrated()
        seam = history.seam_view(key)
        writes = [op.argument for op in seam.writes() if op.done]
        assert writes == ["pre", "post"]
        assert any(
            op.result == "post" for op in seam.reads() if op.done
        )
        times = [op.invoke_time for op in seam]
        assert times == sorted(times)
        # Both sides of the seam contributed operations.
        assert {op.shard for op in seam} == {source, dest}

    def test_seam_plus_shard_views_cover_every_keyed_operation(self):
        _, history, key, *_ = self._migrated()
        keyed = [op for op in history if getattr(op, "key", None) is not None]
        covered = sum(
            len([op for op in history.shard_view(s) if getattr(op, "key", None) is not None])
            for s in history.shard_ids()
        ) + len(history.seam_view(key))
        assert covered == len(keyed)

    def test_digest_covers_the_migration_record(self):
        """Same operations, different handoff outcome ⇒ different digest."""
        _, migrated, *_ = self._migrated(seed=11)
        _, again, *_ = self._migrated(seed=11)
        assert cluster_digest(migrated) == cluster_digest(again)
