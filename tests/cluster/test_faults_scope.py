"""Shard-scoped fault plans: a fault takes down exactly its shard."""

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.faults.plan import FaultPlan, LossFault, PartitionFault
from repro.sim.errors import ConfigError
from tests.conftest import read_on_owner


def make_cluster(**overrides) -> ClusterSystem:
    params = dict(shards=3, keys=6, n=12, seed=8)
    params.update(overrides)
    return ClusterSystem(ClusterConfig(**params))


def drive(cluster: ClusterSystem, horizon: float = 80.0) -> None:
    for key in cluster.keys:
        cluster.write(key=key)
    cluster.run_for(horizon / 2)
    for key in cluster.keys:
        read_on_owner(cluster, key)
    cluster.run_for(horizon / 2)


class TestShardScoping:
    def test_scoped_plan_fires_in_exactly_one_shard(self):
        """The satellite case: only the target shard's counters move."""
        plan = FaultPlan.of(LossFault(probability=1.0), name="total-loss")
        cluster = make_cluster()
        target = 1
        injectors = cluster.install_faults(plan, shards=[target])
        assert len(injectors) == 1
        assert cluster.shards[target].faults is injectors[0]
        drive(cluster)
        for index, shard in enumerate(cluster.shards):
            if index == target:
                assert shard.faults is not None
                assert shard.faults.counters().get("lost", 0) > 0
                assert shard.network.faulted_count > 0
            else:
                assert shard.faults is None
                assert shard.network.faulted_count == 0
        # The sum over shards equals the one faulted shard's count.
        assert sum(s.network.faulted_count for s in cluster.shards) == (
            cluster.shards[target].network.faulted_count
        )
        assert cluster.fault_counters()["lost"] == (
            cluster.shards[target].faults.counters()["lost"]
        )

    def test_cluster_wide_install_reaches_every_shard(self):
        plan = FaultPlan.of(LossFault(probability=1.0), name="total-loss")
        cluster = make_cluster()
        injectors = cluster.install_faults(plan)
        assert len(injectors) == len(cluster.shards)
        drive(cluster)
        for shard in cluster.shards:
            assert shard.network.faulted_count > 0

    def test_partition_takes_down_exactly_one_shard(self):
        """A pid-group partition, scoped: the shard's quorum traffic is
        severed while every other shard keeps its deliveries."""
        target = 2
        cluster = make_cluster()
        # Written against *bare* seed names: scoping must rewrite them
        # into the target shard's namespace.
        plan = FaultPlan.of(
            PartitionFault(
                start=0.0,
                end=200.0,
                group_a=frozenset({"p0001", "p0002"}),
                mode="drop",
            ),
            name="cut",
        )
        cluster.install_faults(plan, shards=[target])
        drive(cluster)
        assert cluster.shards[target].network.faulted_count > 0
        for index, shard in enumerate(cluster.shards):
            if index != target:
                assert shard.network.faulted_count == 0

    def test_scoping_rewrites_bare_pids_only(self):
        plan = FaultPlan.of(
            PartitionFault(
                start=0.0,
                end=10.0,
                group_a=frozenset({"p0001", "s9.p0007"}),
            ),
            name="mixed",
        )
        cluster = make_cluster()
        cluster.install_faults(plan, shards=[0])
        scoped = cluster.shards[0].faults.plan.partitions[0]
        assert scoped.group_a == frozenset({"s0.p0001", "s9.p0007"})

    def test_scope_pids_false_installs_verbatim(self):
        plan = FaultPlan.of(
            PartitionFault(start=0.0, end=10.0, group_a=frozenset({"p0001"})),
            name="verbatim",
        )
        cluster = make_cluster()
        cluster.install_faults(plan, shards=[0], scope_pids=False)
        assert cluster.shards[0].faults.plan.partitions[0].group_a == frozenset(
            {"p0001"}
        )

    def test_bad_shard_index_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ConfigError, match=r"shard index 5 out of range \[0, 3\)"):
            cluster.install_faults(FaultPlan(name="x"), shards=[5])


class TestMapPids:
    def test_map_pids_touches_every_reference(self):
        from repro.faults.plan import CrashFault, DelaySpikeFault

        plan = FaultPlan.of(
            LossFault(probability=0.5, sender="p0001", dest="p0002"),
            PartitionFault(
                start=0.0,
                end=5.0,
                group_a=frozenset({"p0003"}),
                group_b=frozenset({"p0004"}),
            ),
            DelaySpikeFault(factor=2.0, sender="p0005"),
            CrashFault(phase="WriteMsg", victim="sender", pid="p0006"),
            name="all-kinds",
        )
        mapped = plan.map_pids(lambda pid: f"s7.{pid}")
        assert mapped.losses[0].sender == "s7.p0001"
        assert mapped.losses[0].dest == "s7.p0002"
        assert mapped.partitions[0].group_a == frozenset({"s7.p0003"})
        assert mapped.partitions[0].group_b == frozenset({"s7.p0004"})
        assert mapped.spikes[0].sender == "s7.p0005"
        assert mapped.spikes[0].dest is None
        assert mapped.crashes[0].pid == "s7.p0006"
        # The symbolic victim role is not a pid and must survive.
        assert mapped.crashes[0].victim == "sender"
        assert mapped.name == "all-kinds"

    def test_map_pids_identity_is_equal(self):
        plan = FaultPlan.of(
            LossFault(probability=0.5, sender="p0001"), name="idy"
        )
        assert plan.map_pids(lambda pid: pid) == plan
