"""Tests for the declarative, serializable cluster-wide fault plan."""

import pytest

from repro.faults import ClusterFaultPlan
from repro.faults.plan import (
    CrashFault,
    DelaySpikeFault,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.sim.errors import ConfigError


def kitchen_sink() -> ClusterFaultPlan:
    return ClusterFaultPlan(
        cluster_wide=FaultPlan.of(
            LossFault(
                probability=0.3,
                start=5.0,
                end=9.0,
                payload_types=frozenset({"MigFetchReply", "MigAck"}),
            ),
            DelaySpikeFault(start=0.0, end=10.0, factor=2.0, extra=1.0),
            name="soak",
        ),
        per_shard=(
            (0, FaultPlan.of(
                CrashFault(phase="MigInstall", victim="dest", occurrence=2),
                name="install-crash",
            )),
            (2, FaultPlan.of(
                PartitionFault(
                    start=1.0,
                    end=2.0,
                    group_a=frozenset({"a", "b"}),
                    group_b=frozenset({"c"}),
                    mode="defer",
                ),
                name="split",
            )),
            (0, FaultPlan.of(LossFault(probability=1.0), name="blackout")),
        ),
        name="kitchen-sink",
    )


class TestComposition:
    def test_empty_plan_is_empty(self):
        plan = ClusterFaultPlan()
        assert plan.is_empty
        assert plan.shard_indices() == ()
        assert plan.plan_for(0).is_empty

    def test_plan_for_merges_cluster_wide_then_shard_entries_in_order(self):
        plan = kitchen_sink()
        shard0 = plan.plan_for(0)
        # cluster-wide (2 faults) + install-crash (1) + blackout (1)
        assert len(shard0) == 4
        assert shard0.atomic_faults()[0] in plan.cluster_wide.atomic_faults()
        assert len(plan.plan_for(1)) == 2  # cluster-wide only
        assert len(plan.plan_for(2)) == 3

    def test_shard_indices_are_sorted_and_deduplicated(self):
        assert kitchen_sink().shard_indices() == (0, 2)

    def test_is_empty_requires_every_part_empty(self):
        assert ClusterFaultPlan(per_shard=((1, FaultPlan()),)).is_empty
        assert not ClusterFaultPlan(
            per_shard=((1, FaultPlan.of(LossFault(probability=0.1))),)
        ).is_empty


class TestValidation:
    def test_negative_shard_rejected(self):
        with pytest.raises(ConfigError):
            ClusterFaultPlan(per_shard=((-1, FaultPlan()),))

    def test_non_plan_entry_rejected(self):
        with pytest.raises(ConfigError):
            ClusterFaultPlan(per_shard=((0, LossFault(probability=0.5)),))

    def test_from_dict_rejects_missing_shard(self):
        with pytest.raises(ConfigError):
            ClusterFaultPlan.from_dict({"per_shard": [{"plan": {}}]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"clusterwide": {}},
            {"per_shard": [{"shard": 0, "plans": {}}]},
            {"per_shard": [{"shard": 0, "plan": {"fault": []}}]},
            {"cluster_wide": {"fault": []}},
        ],
        ids=["top-level", "per-shard-entry", "shard-plan", "cluster-wide-plan"],
    )
    def test_from_dict_rejects_a_misspelt_key(self, payload):
        with pytest.raises(ConfigError, match="unknown key"):
            ClusterFaultPlan.from_dict(payload)

    def test_from_dict_rejects_a_non_list_per_shard(self):
        with pytest.raises(ConfigError, match="must be a list"):
            ClusterFaultPlan.from_dict({"per_shard": {"shard": 0, "plan": {}}})


class TestClassification:
    def test_out_of_model_fault_on_any_shard_taints_the_cluster(self):
        clean = ClusterFaultPlan(
            cluster_wide=FaultPlan.of(
                CrashFault(phase="MigFetchReply", victim="dest")
            )
        )
        assert clean.classify(delta=5.0).in_model
        tainted = ClusterFaultPlan(
            cluster_wide=clean.cluster_wide,
            per_shard=(
                (1, FaultPlan.of(LossFault(probability=0.9))),
            ),
        )
        verdict = tainted.classify(delta=5.0)
        assert not verdict.in_model
        assert verdict.reasons

    def test_duplicate_reasons_pool_once(self):
        lossy = FaultPlan.of(LossFault(probability=0.9))
        plan = ClusterFaultPlan(per_shard=((0, lossy), (1, lossy)))
        verdict = plan.classify(delta=5.0)
        assert len(verdict.reasons) == len(set(verdict.reasons))


class TestInstallation:
    def test_install_composes_per_shard_on_a_live_cluster(self):
        from repro.cluster import ClusterConfig, ClusterSystem
        from repro.protocols.common import MIGRATION_PAYLOADS

        cluster = ClusterSystem(
            ClusterConfig(shards=3, keys=6, n=18, delta=5.0, seed=7)
        )
        key_a = cluster.keys[0]
        dest_a = (cluster.shard_of(key_a) + 1) % 3
        # The control handoff runs entirely on unfaulted shards: its
        # source avoids key_a's blacked-out shard and it lands on dest_a.
        key_b = next(
            k for k in cluster.keys
            if cluster.shard_of(k) not in (cluster.shard_of(key_a), dest_a)
        )
        dest_b = dest_a
        plan = ClusterFaultPlan(
            per_shard=(
                (cluster.shard_of(key_a), FaultPlan.of(
                    LossFault(probability=1.0,
                              payload_types=MIGRATION_PAYLOADS),
                    name="blackout",
                )),
            ),
            name="one-shard-blackout",
        )
        injectors = cluster.install_cluster_faults(plan, scope_pids=False)
        assert len(injectors) == 1  # only the faulted shard gets one
        starved = cluster.schedule_migration(key_a, dest_a, at=20.0)
        clean = cluster.schedule_migration(key_b, dest_b, at=20.0)
        cluster.run_until(150.0)
        assert starved.aborted  # its source shard eats every MigFetch
        assert clean.committed  # untouched shards migrate normally


class TestSerialization:
    @pytest.mark.parametrize(
        "plan",
        [
            ClusterFaultPlan(name="empty"),
            kitchen_sink(),
        ],
    )
    def test_dict_round_trip(self, plan):
        assert ClusterFaultPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_survives_json(self):
        import json

        plan = kitchen_sink()
        payload = json.loads(json.dumps(plan.to_dict()))
        assert ClusterFaultPlan.from_dict(payload) == plan

    def test_describe_mentions_shape(self):
        assert "no faults" in ClusterFaultPlan().describe()
        text = kitchen_sink().describe()
        assert "kitchen-sink" in text
        assert "2 fault(s)" in text
        assert "3 per-shard schedule(s)" in text
