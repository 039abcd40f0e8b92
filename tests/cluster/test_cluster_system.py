"""Unit tests for :class:`repro.cluster.system.ClusterSystem`."""

import pytest

from repro.churn.active_set import SAMPLE_PERIOD
from repro.cluster import ClusterConfig, ClusterSystem, cluster_digest
from repro.core.history import operation_digest
from repro.runtime.config import INITIAL_VALUE
from repro.runtime.system import DynamicSystem
from repro.sim.errors import ConfigError
from tests.conftest import read_on_owner
from tests.digests import cluster_workload, keyed_store_fanout


def make_cluster(**overrides) -> ClusterSystem:
    params = dict(shards=3, keys=6, n=12, seed=5)
    params.update(overrides)
    return ClusterSystem(ClusterConfig(**params))


class TestConstruction:
    def test_shards_share_one_engine(self):
        cluster = make_cluster()
        assert all(shard.engine is cluster.engine for shard in cluster.shards)
        assert all(not shard.owns_engine for shard in cluster.shards)

    def test_shard_ids_and_pid_namespaces(self):
        cluster = make_cluster()
        for index, shard in enumerate(cluster.shards):
            assert shard.shard_id == index
            assert all(pid.startswith(f"s{index}.p") for pid in shard.seed_pids)

    def test_populations_are_disjoint(self):
        cluster = make_cluster()
        all_pids = [pid for shard in cluster.shards for pid in shard.seed_pids]
        assert len(all_pids) == len(set(all_pids)) == 12


class TestRouting:
    def test_every_key_routes_to_its_owner(self):
        cluster = make_cluster()
        for key in cluster.keys:
            shard = cluster.shard_for(key)
            assert key in shard.keys
            assert cluster.shard_of(key) == cluster.config.shard_of(key)

    def test_none_key_resolves_to_default(self):
        cluster = make_cluster()
        assert cluster.resolve_key(None) == cluster.keys[0]

    def test_unknown_key_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ConfigError, match="unknown cluster key 'k999'"):
            read_on_owner(cluster, "k999")

    def test_write_and_read_land_on_owning_shard(self):
        cluster = make_cluster()
        key = cluster.keys[3]
        owner = cluster.shard_of(key)
        handle = cluster.write("hello", key=key)
        cluster.run_for(20.0)
        assert handle.done
        assert handle.shard == owner
        read = read_on_owner(cluster, key)
        cluster.run_for(20.0)
        assert read.result == "hello"
        assert read.shard == owner
        # The operations are recorded only in the owner's history.
        for index, shard in enumerate(cluster.shards):
            expected = 2 if index == owner else 0
            assert len(shard.history.reads()) + len(shard.history.writes()) == expected


class TestFrontDoor:
    @pytest.mark.parametrize("keys", [1, 4], ids=["one-key", "named-keys"])
    def test_writes_serialize_per_key_with_cluster_wide_values(self, keys):
        """Every cluster's writes pass one front door: a write to a busy
        key is deferred, never issued concurrently, and values come from
        one cluster-wide counter — the single register included."""
        cluster = make_cluster(shards=2, keys=keys, n=8)
        key = cluster.keys[0]
        first = cluster.write(key=key)
        assert first is not None and first.argument == "w1"
        assert cluster.write(key=key) is None  # busy: queued behind w1
        assert cluster.writes_deferred == 1
        cluster.run_for(30.0)
        cluster.close()
        writes = cluster.shards[cluster.shard_of(key)].history.writes()
        assert [w.argument for w in writes] == ["w1", "w2"]
        assert writes[0].response_time <= writes[1].invoke_time


class TestDeterminism:
    def _drive(self, seed: int) -> str:
        cluster = make_cluster(seed=seed)
        cluster.attach_churn(rate=0.05, min_stay=10.0)
        for key in cluster.keys:
            cluster.write(key=key)
        cluster.run_for(40.0)
        for key in cluster.keys:
            read_on_owner(cluster, key)
        cluster.run_for(40.0)
        return cluster_digest(cluster.close())

    def test_same_seed_same_cluster_digest(self):
        assert self._drive(5) == self._drive(5)

    def test_different_seed_different_digest(self):
        assert self._drive(5) != self._drive(6)

    def test_shards_one_matches_standalone_shard_system(self):
        """A 1-shard cluster is exactly its shard run standalone.

        The wrapper adds routing and a shared engine; neither may
        perturb the shard's behaviour — the operation digest of the
        cluster's only shard equals a standalone DynamicSystem built
        from the identical derived config.
        """
        config = ClusterConfig(shards=1, keys=4, n=10, seed=11)

        def drive(read, write, run_for, close):
            for key in ("k0", "k1", "k2", "k3"):
                write(key)
            run_for(30.0)
            for key in ("k0", "k1", "k2", "k3"):
                read(key)
            run_for(30.0)
            return close()

        cluster = ClusterSystem(config)
        drive(
            lambda key: read_on_owner(cluster, key),
            lambda key: cluster.write(key=key),
            cluster.run_for,
            cluster.close,
        )
        solo = DynamicSystem(config.shard_config(0))
        solo_history = drive(
            lambda key: solo.read(solo.writer_pid, key=key),
            lambda key: solo.write(key=key),
            solo.run_for,
            solo.close,
        )
        cluster_history = cluster.shards[0].history
        assert operation_digest(cluster_history) == operation_digest(solo_history)


class TestChurnAndAccounting:
    def test_attach_churn_installs_one_controller_per_shard(self):
        cluster = make_cluster()
        controllers = cluster.attach_churn(rate=0.1, min_stay=5.0)
        assert len(controllers) == 3
        for shard, controller in zip(cluster.shards, controllers):
            assert shard.churn is controller

    def test_active_counts_probe(self):
        # Every shard starts with its whole population slice active.
        cluster = make_cluster()
        counts = tuple(shard.membership.active_count for shard in cluster.shards)
        assert counts == cluster.config.shard_sizes()

    def test_every_shard_samples_and_starts_from_the_runtime_constants(self):
        cluster = make_cluster()
        cluster.run_for(10.0)
        for shard in cluster.shards:
            times = [sample.time for sample in shard.tracker.samples]
            assert times == [i * SAMPLE_PERIOD for i in range(11)]
            assert shard.history.initial_value == INITIAL_VALUE


class TestClose:
    def test_close_is_idempotent_and_merges_all_shards(self):
        cluster = make_cluster()
        for key in cluster.keys:
            cluster.write(key=key)
        cluster.run_for(20.0)
        history = cluster.close()
        assert cluster.close() is history
        assert len(history) == sum(len(s.history) for s in cluster.shards)
        assert history.horizon == cluster.now

    def test_history_property_closes(self):
        cluster = make_cluster()
        assert cluster.history.horizon is not None


def test_cluster_shard_scaling_guard():
    """Perf guard: the bench's 4-shard migrating cluster workload
    delivers at least 2x fewer messages than the keyed store serving
    the same population, key count, churn and plan shape from one
    quorum group — a deterministic message count (it reads 23071 / 5465
    = 4.22, handoff traffic included; 2x is the loose floor)."""
    single_delivered, _ = keyed_store_fanout()
    sharded_delivered, _ = cluster_workload("migration")
    scaling = single_delivered / sharded_delivered
    assert scaling >= 2.0, (
        f"expected >=2x delivered-message reduction from 4 shards, "
        f"got {scaling:.2f}x ({single_delivered} -> {sharded_delivered})"
    )
