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
        history = cluster.close().shard_history(owner)
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

    @pytest.mark.parametrize("dynamic", [False, True])
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
        self, dynamic, time
    ):
        cluster = make_cluster()
        cluster.run_until(5.0)
        pending = cluster.engine.pending_count
        driver = ClusterWorkloadDriver(cluster, dynamic=dynamic)
        # One op per key first, so every shard's sub-plan is non-empty
        # and the bad op's position in a sub-plan is not its position.
        plan = [WriteOp(time=6.0, key=key) for key in cluster.keys]
        plan.append(ReadOp(time=time, key=cluster.keys[-1]))
        with pytest.raises(ExperimentError) as refused:
            driver.install(plan)
        message = str(refused.value)
        assert f"operation {len(cluster.keys)} of the plan (ReadOp)" in message
        assert f"planned at {time!r}" in message
        assert "the clock, which reads 5.0" in message
        assert cluster.engine.pending_count == pending

    def test_stats_aggregate_handles(self):
        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        plan = [WriteOp(time=2.0, key=key) for key in cluster.keys[:4]]
        driver.install(plan)
        cluster.run_until(40.0)
        stats = driver.stats
        assert len(stats.write_handles) == stats.writes_issued == 4
        assert stats.write_completion_rate == 1.0


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


class TestStatsAggregation:
    def test_static_stats_aggregate_every_field(self):
        """Regression: the static driver's ``stats`` summed a hand-kept
        field list that silently dropped ``writes_deferred`` (and would
        drop any future counter).  Aggregation is introspective now:
        every ``WorkloadStats`` field must survive the merge."""
        from dataclasses import fields

        from repro.workloads.schedule import WorkloadStats

        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        for index, sub in enumerate(driver.drivers):
            for field in fields(WorkloadStats):
                value = getattr(sub.stats, field.name)
                if isinstance(value, int):
                    setattr(sub.stats, field.name, index + 1)
                else:
                    value.append(object())
        total = driver.stats
        expected = sum(range(1, len(driver.drivers) + 1))
        for field in fields(WorkloadStats):
            value = getattr(total, field.name)
            if isinstance(value, int):
                assert value == expected, f"{field.name} dropped by the merge"
            else:
                assert len(value) == len(driver.drivers)

    def test_deferred_writes_surface_in_static_stats(self):
        cluster = make_cluster()
        driver = ClusterWorkloadDriver(cluster)
        driver.drivers[0].stats.writes_deferred = 7
        assert driver.stats.writes_deferred == 7
