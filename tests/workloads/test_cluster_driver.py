"""Tests for the cluster workload driver and the shard-skew picker."""

import random

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.sim.errors import ExperimentError
from repro.workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
from repro.workloads.generators import assign_keys, read_heavy_plan
from repro.workloads.schedule import ReadOp, WriteOp


def make_cluster(**overrides) -> ClusterSystem:
    params = dict(shards=4, keys=8, n=16, seed=2)
    params.update(overrides)
    return ClusterSystem(ClusterConfig(**params))


class TestDriverRouting:
    def test_ops_route_to_owning_shards(self):
        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        plan = [WriteOp(time=5.0, key=key) for key in cluster.keys]
        plan += [ReadOp(time=30.0, key=key) for key in cluster.keys]
        driver.install(plan)
        cluster.run_until(60.0)
        per_shard = driver.shard_op_counts()
        for shard in range(4):
            assert per_shard[shard] == 2 * len(cluster.keys_of_shard(shard))
        assert driver.stats.writes_issued == 8
        assert driver.stats.reads_issued == 8

    def test_none_key_goes_to_the_default_keys_shard(self):
        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        driver.install([WriteOp(time=1.0), ReadOp(time=20.0)])
        cluster.run_until(40.0)
        owner = cluster.shard_of(cluster.keys[0])
        cluster.close()
        history = cluster.shards[owner].history
        assert len(history.writes()) == 1
        assert len(history.reads()) == 1
        # The key was materialized: it is the cluster default, not None.
        assert history.writes()[0].key == cluster.keys[0]

    def test_write_serialization_is_per_cluster_key(self):
        """Two writes to the same key, second while the first is still
        pending, must be skipped — even routed through the cluster."""
        cluster = make_cluster()
        key = cluster.keys[0]
        driver = ClusterWorkloadDriver(cluster)
        driver.install([WriteOp(time=1.0, key=key), WriteOp(time=1.5, key=key)])
        cluster.run_until(40.0)
        assert driver.stats.writes_issued == 1
        assert driver.stats.writes_skipped == 1

    def test_double_install_rejected(self):
        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        driver.install([])
        with pytest.raises(ExperimentError):
            driver.install([])

    @pytest.mark.parametrize(
        "time",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            4.0,
        ],
    )
    def test_a_bad_time_is_refused_by_its_position_in_the_cluster_plan(
        self, time
    ):
        cluster = make_cluster()
        cluster.run_until(5.0)
        pending = cluster.engine.pending_count
        driver = ClusterWorkloadDriver(cluster)
        # One op per key first: the refusal names the bad op by its
        # position in the whole plan, across every shard.
        plan = [WriteOp(time=6.0, key=key) for key in cluster.keys]
        plan.append(ReadOp(time=time, key=cluster.keys[-1]))
        with pytest.raises(ExperimentError) as refused:
            driver.install(plan)
        message = str(refused.value)
        assert f"operation {len(cluster.keys)} of the plan (ReadOp)" in message
        assert f"planned at {time!r}" in message
        assert "the clock, which reads 5.0" in message
        assert cluster.engine.pending_count == pending

    def test_static_routing_is_refused_by_name(self):
        with pytest.raises(ExperimentError, match=r"dynamic=False"):
            ClusterWorkloadDriver(make_cluster(), dynamic=False)
        # ``dynamic=True`` stays accepted: it is the only mode.
        ClusterWorkloadDriver(make_cluster(), dynamic=True).install([])

    def test_stats_aggregate_handles(self):
        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        plan = [WriteOp(time=2.0, key=key) for key in cluster.keys[:4]]
        driver.install(plan)
        cluster.run_until(40.0)
        writes = cluster.close().operations("write")
        assert len(writes) == driver.stats.writes_issued == 4
        assert all(handle.done for handle in writes)


class TestNamedReaders:
    """An explicit reader must be a pid of the key's owning shard: a pid
    that never entered that shard is refused by name; a departed one is
    a counted skip."""

    def test_a_reader_outside_the_owning_shard_is_refused_with_its_time(self):
        cluster = make_cluster()
        key = cluster.keys[0]
        owner = cluster.shard_of(key)
        stranger = cluster.shards[(owner + 1) % 4].seed_pids[0]
        driver = ClusterWorkloadDriver(cluster)
        driver.install([ReadOp(time=7.0, reader=stranger, key=key)])
        with pytest.raises(ExperimentError) as refused:
            cluster.run_until(10.0)
        message = str(refused.value)
        assert f"ReadOp planned at 7.0 names reader {stranger!r}" in message
        assert f"never entered shard {owner}, which owns key {key!r}" in message
        assert driver.stats.reads_skipped == 0

    def test_a_mistyped_reader_is_refused(self):
        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        driver.install([ReadOp(time=2.0, reader="p9999x")])
        with pytest.raises(ExperimentError, match="names reader 'p9999x'"):
            cluster.run_until(10.0)

    def test_an_owning_shards_reader_reads_there_and_a_departed_one_skips(self):
        cluster = make_cluster()
        key = cluster.keys[1]
        owner = cluster.shard_of(key)
        shard = cluster.shards[owner]
        reader, gone = shard.seed_pids[1], shard.seed_pids[2]
        driver = ClusterWorkloadDriver(cluster)
        driver.install(
            [
                ReadOp(time=2.0, reader=reader, key=key),
                ReadOp(time=12.0, reader=gone, key=key),
            ]
        )
        cluster.run_until(5.0)
        shard.leave(gone)
        cluster.run_until(20.0)
        stats = driver.stats
        assert stats.reads_issued == stats.reads_skipped == 1
        (handle,) = cluster.close().operations("read")
        assert (handle.process_id, handle.shard, handle.key) == (reader, owner, key)
        assert cluster.shards[owner].history.reads() == [handle]


class TestShardSkewPicker:
    def test_zipf_skew_concentrates_on_the_hot_shard(self):
        cluster = make_cluster()
        rng = random.Random(0)
        pick = shard_skewed_key_picker(cluster, rng, distribution="zipf")
        counts = {shard: 0 for shard in range(4)}
        for _ in range(2000):
            counts[cluster.shard_of(pick())] += 1
        populated = [s for s in range(4) if cluster.keys_of_shard(s)]
        hot = populated[0]
        # Rank 0 of the populated ordering is the designated hot shard.
        assert counts[hot] == max(counts.values())
        assert counts[hot] > 2000 / len(populated) * 1.5

    def test_uniform_skew_spreads_over_populated_shards(self):
        cluster = make_cluster()
        rng = random.Random(0)
        pick = shard_skewed_key_picker(cluster, rng, distribution="uniform")
        counts = {shard: 0 for shard in range(4)}
        for _ in range(2000):
            counts[cluster.shard_of(pick())] += 1
        populated = [s for s in range(4) if cluster.keys_of_shard(s)]
        for shard in populated:
            assert counts[shard] > 0

    def test_picker_only_returns_known_keys(self):
        cluster = make_cluster(shards=6, keys=3, n=12)
        rng = random.Random(1)
        pick = shard_skewed_key_picker(cluster, rng)
        for _ in range(200):
            assert pick() in cluster.keys

    def test_picker_is_deterministic(self):
        cluster = make_cluster()
        a = shard_skewed_key_picker(cluster, random.Random(7))
        b = shard_skewed_key_picker(cluster, random.Random(7))
        assert [a() for _ in range(100)] == [b() for _ in range(100)]

    def test_unknown_distribution_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ExperimentError):
            shard_skewed_key_picker(cluster, random.Random(0), distribution="pareto")


class TestEndToEnd:
    def test_skewed_read_heavy_workload_stays_regular(self):
        cluster = make_cluster()
        cluster.attach_churn(rate=0.03, min_stay=15.0)
        driver = ClusterWorkloadDriver(cluster)
        plan = read_heavy_plan(
            start=5.0,
            end=100.0,
            write_period=10.0,
            read_rate=1.0,
            rng=cluster.rng.stream("t.plan"),
        )
        plan = assign_keys(
            plan, shard_skewed_key_picker(cluster, cluster.rng.stream("t.skew"))
        )
        driver.install(plan)
        cluster.run_until(130.0)
        assert cluster.check_safety().is_safe
        assert driver.stats.reads_issued > 0
        assert driver.stats.writes_issued > 0


class TestPickerFollowsFlips:
    """Regression: the skew picker used to capture each shard's key list
    at construction, so a picker built before a migration kept routing
    hot-rank traffic by the stale pre-flip ownership.  Ownership now
    resolves at pick time."""

    @staticmethod
    def _committed_flip(cluster):
        key = cluster.keys[0]
        dest = (cluster.shard_of(key) + 1) % len(cluster.shards)
        record = cluster.schedule_migration(key, dest, at=10.0)
        cluster.run_until(60.0)
        assert record.committed
        return key, dest

    def test_pre_flip_picker_matches_post_flip_picker(self):
        """A picker built before the handoff must draw the exact same
        seeded sequence as one built after it — pick-time resolution
        makes construction order irrelevant."""
        early = make_cluster(seed=5)
        pick_early = shard_skewed_key_picker(
            early, random.Random(3), distribution="zipf"
        )
        self._committed_flip(early)
        late = make_cluster(seed=5)
        self._committed_flip(late)
        pick_late = shard_skewed_key_picker(
            late, random.Random(3), distribution="zipf"
        )
        assert [pick_early() for _ in range(300)] == [
            pick_late() for _ in range(300)
        ]

    def test_migrated_key_draws_by_its_new_shards_rank(self):
        cluster = make_cluster(seed=5)
        pick = shard_skewed_key_picker(
            cluster, random.Random(3), distribution="zipf"
        )
        key, dest = self._committed_flip(cluster)
        counts = {shard: 0 for shard in range(len(cluster.shards))}
        for _ in range(2000):
            counts[cluster.shard_of(pick())] += 1
        # Every pick routed by current ownership: the source shard (which
        # may have emptied) gets only what it still owns.
        for shard, count in counts.items():
            if not cluster.keys_of_shard(shard):
                assert count == 0

    def test_emptied_shard_falls_back_to_the_whole_key_space(self):
        """Draining a shard mid-run must not strand its skew rank: picks
        that land on an empty shard fall back to all cluster keys."""
        cluster = make_cluster(shards=3, keys=3, n=12, seed=5)
        source = cluster.shard_of(cluster.keys[0])
        dest = (source + 1) % 3
        pick = shard_skewed_key_picker(
            cluster, random.Random(3), distribution="uniform"
        )
        records = [
            cluster.schedule_migration(key, dest, at=10.0 + 40.0 * j)
            for j, key in enumerate(cluster.keys_of_shard(source))
        ]
        cluster.run_until(140.0)
        assert all(r.committed for r in records)
        assert cluster.keys_of_shard(source) == ()
        draws = [pick() for _ in range(600)]
        assert set(draws) == set(cluster.keys)
        assert all(cluster.shard_of(k) != source for k in draws)


class TestFireTimeRoutingWithoutMigrations:
    """Every cluster routes at fire time.  With no migration the owner
    never changes, so each operation must land exactly where splitting
    the plan by ``shard_of`` at install time would have sent it — the
    split is computed here as the oracle."""

    @staticmethod
    def _plan(keys):
        # Writes to any one key 40 apart (a sync write settles in delta),
        # reads spread over the run; nothing churns, so nothing skips.
        plan = [
            WriteOp(time=2.0 + 40.0 * j + index, key=key)
            for j in range(3)
            for index, key in enumerate(keys)
        ]
        rng = random.Random(4)
        plan += [
            ReadOp(time=rng.uniform(1.0, 120.0), key=rng.choice(keys))
            for _ in range(60)
        ]
        return plan

    @staticmethod
    def _install_time_split(cluster, plan):
        split = [0] * len(cluster.shards)
        owner = {}
        for op in plan:
            key = cluster.resolve_key(op.key)
            owner[key] = cluster.shard_of(key)
            split[owner[key]] += 1
        return tuple(split), owner

    @pytest.mark.parametrize(
        "overrides, keys",
        [(dict(), 8), (dict(shards=2, keys=1, n=8), 1)],
        ids=["named-keys", "one-key"],
    )
    def test_each_op_runs_on_its_install_time_shard(self, overrides, keys):
        cluster = make_cluster(**overrides)
        # A 1-key cluster's only key is None, the single register.
        assert len(cluster.keys) == keys
        assert (cluster.keys == (None,)) == (keys == 1)
        plan = self._plan(cluster.keys)
        split, owner = self._install_time_split(cluster, plan)
        driver = ClusterWorkloadDriver(cluster)
        driver.install(plan)
        cluster.run_until(160.0)
        stats = driver.stats
        assert stats.reads_skipped == stats.writes_skipped == 0
        assert stats.writes_deferred == 0
        assert driver.shard_op_counts() == split
        history = cluster.close()
        for handle in history.operations("read") + history.operations("write"):
            assert handle.shard == owner[cluster.resolve_key(handle.key)]
        assert cluster.check_safety().is_safe


class TestDriverFollowsFlips:
    """The reason every cluster routes at fire time: a plan installed
    before a handoff lands on whichever shard owns the key when each
    operation fires."""

    @staticmethod
    def _migrating_cluster():
        cluster = make_cluster(shards=3, keys=6, n=18, seed=5)
        key = cluster.keys[0]
        source = cluster.shard_of(key)
        return cluster, key, source, (source + 1) % 3

    def test_ops_fired_after_the_flip_reach_the_new_owner(self):
        cluster, key, source, dest = self._migrating_cluster()
        driver = ClusterWorkloadDriver(cluster)
        driver.install([
            ReadOp(time=5.0, key=key), WriteOp(time=6.0, key=key),
            ReadOp(time=80.0, key=key), WriteOp(time=81.0, key=key),
        ])
        record = cluster.schedule_migration(key, dest, at=20.0)
        cluster.run_until(120.0)
        assert record.committed
        history = cluster.close()
        handles = sorted(
            history.operations("read") + history.operations("write"),
            key=lambda h: h.invoke_time,
        )
        assert [h.shard for h in handles] == [source, source, dest, dest]
        counts = driver.shard_op_counts()
        assert counts[source] == counts[dest] == 2

    def test_a_write_fired_during_the_freeze_lands_on_the_new_owner(self):
        cluster, key, source, dest = self._migrating_cluster()
        driver = ClusterWorkloadDriver(cluster)
        driver.install([WriteOp(time=21.0, value="frozen", key=key)])
        record = cluster.schedule_migration(key, dest, at=20.0)
        cluster.run_until(120.0)
        assert record.committed and record.deferred_writes == 1
        assert driver.stats.writes_deferred == 1
        assert driver.stats.writes_issued == 0
        history = cluster.close()
        assert [w.argument for w in cluster.shards[source].history.writes()] == []
        assert [w.argument for w in history.seam_view(key).writes()] == ["frozen"]
        assert history.seam_view(key).writes()[0].shard == dest
