"""Unit tests for the load-watching rebalancer: policy, planning, drains.

The Rebalancer is the *when* on top of PR 6's *how*: it samples
per-shard load on the cluster clock and plans budget-bounded storms of
concurrent key migrations.  These tests pin its policy validation, its
trigger/idle/quiesce tick notes, greedy move selection,
shard retirement, and — because the planner draws no randomness — the
byte-determinism of a rebalanced run, concurrent storms included.
"""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSystem,
    RebalancePolicy,
    Rebalancer,
)
from repro.sim.errors import ConfigError
from repro.workloads.cluster import shard_skewed_key_picker
from repro.workloads.generators import assign_keys, read_heavy_plan
from repro.workloads.schedule import ReadOp, WorkloadDriver


def make_cluster(**overrides) -> ClusterSystem:
    params = dict(shards=4, keys=8, n=16, delta=5.0, seed=9)
    params.update(overrides)
    return ClusterSystem(ClusterConfig(**params))


def skewed_setup(cluster, horizon, **policy_knobs):
    """Driver + rebalancer + Zipf hot-shard plan, ready to run."""
    driver = WorkloadDriver(cluster)
    knobs = dict(period=15.0, threshold=1.2, budget=2, max_retries=1,
                 plan_until=horizon - 90.0)
    knobs.update(policy_knobs)
    rebalancer = Rebalancer(
        cluster, driver=driver, policy=RebalancePolicy(**knobs)
    )
    plan = read_heavy_plan(
        start=5.0, end=horizon - 20.0, write_period=10.0, read_rate=1.0,
        rng=cluster.rng.stream("t.rebal.plan"),
    )
    plan = assign_keys(
        plan,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream("t.rebal.keys"), distribution="zipf"
        ),
    )
    driver.install(plan)
    return driver, rebalancer


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "knobs",
        [
            dict(period=0.0),
            dict(period=-5.0),
            dict(threshold=0.9),
            dict(budget=0),
        ],
    )
    def test_bad_knobs_rejected(self, knobs):
        with pytest.raises(ConfigError):
            RebalancePolicy(**knobs).validate()

    @pytest.mark.parametrize(
        "name", ["period", "threshold", "plan_until"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_knob_is_refused_by_name(self, name, value):
        # NaN compares false with everything, so ``nan <= 0`` and
        # ``nan < 1.0`` used to wave it through: a rebalancer that
        # never ticks, or never triggers, without a word.
        with pytest.raises(
            ConfigError, match=f"rebalance {name} must be finite, got {value!r}"
        ):
            RebalancePolicy(**{name: value}).validate()

    def test_defaults_validate(self):
        RebalancePolicy().validate()
        RebalancePolicy(plan_until=100.0).validate()

    def test_ops_signal_needs_a_driver(self):
        # Load is the driver's issued operations: there is no other
        # signal to fall back on.
        with pytest.raises(TypeError, match="driver"):
            Rebalancer(make_cluster())

    def test_a_single_register_cluster_is_refused_up_front(self):
        cluster = ClusterSystem(ClusterConfig(shards=2, keys=1, n=8, seed=1))
        with pytest.raises(ConfigError, match="nothing to reshard"):
            Rebalancer(cluster, driver=WorkloadDriver(cluster))

    def test_policy_has_five_knobs(self):
        from dataclasses import fields

        assert [f.name for f in fields(RebalancePolicy)] == [
            "period", "threshold", "budget", "max_retries", "plan_until"
        ]

    def test_construction_arms_the_elastic_front_door(self):
        cluster = make_cluster()
        driver = WorkloadDriver(cluster)
        Rebalancer(cluster, driver=driver)
        # Elastic writes draw the cluster-wide counter (starts at w1).
        assert cluster.next_value() == "w1"


class TestTickNotes:
    def test_idle_cluster_never_plans(self):
        cluster = make_cluster()
        driver = WorkloadDriver(cluster)
        rebalancer = Rebalancer(
            cluster, driver=driver, policy=RebalancePolicy(period=10.0)
        )
        driver.install([])
        cluster.run_until(50.0)
        assert len(rebalancer.samples) == 5
        assert all(s.note == "idle" for s in rebalancer.samples)
        assert rebalancer.actions == []

    def test_a_window_with_zero_load_is_idle(self):
        cluster = make_cluster()
        driver = WorkloadDriver(cluster)
        rebalancer = Rebalancer(
            cluster, driver=driver,
            policy=RebalancePolicy(period=10.0, threshold=1.2),
        )
        key = cluster.keys[0]
        driver.install([ReadOp(time=1.0 + t, key=key) for t in range(8)])
        cluster.run_until(50.0)
        first, *rest = rebalancer.samples
        assert sum(first.loads) == 8 and first.planned == 1
        # Traffic stopped: every later window is empty, so idle — even
        # though cumulative load and the skew it left are still there.
        assert len(rest) == 4
        assert all(s.note == "idle" and s.planned == 0 for s in rest)

    def test_quiesce_stops_planning_but_not_sampling(self):
        cluster = make_cluster()
        driver, rebalancer = skewed_setup(cluster, horizon=200.0,
                                          plan_until=40.0)
        cluster.run_until(200.0)
        late = [s for s in rebalancer.samples if s.time > 40.0]
        assert late and all(s.note == "quiesced" for s in late)
        assert all(s.planned == 0 for s in late)
        assert all(a.time <= 40.0 for a in rebalancer.actions)


class TestBalancing:
    def test_skewed_load_triggers_moves_that_reduce_imbalance(self):
        horizon = 260.0
        static = make_cluster()
        static_driver = WorkloadDriver(static)
        plan = read_heavy_plan(
            start=5.0, end=horizon - 20.0, write_period=10.0, read_rate=1.0,
            rng=static.rng.stream("t.rebal.plan"),
        )
        plan = assign_keys(
            plan,
            shard_skewed_key_picker(
                static, static.rng.stream("t.rebal.keys"), distribution="zipf"
            ),
        )
        static_driver.install(plan)
        static.run_until(horizon)

        cluster = make_cluster()
        driver, rebalancer = skewed_setup(cluster, horizon)
        cluster.run_until(horizon)

        before = Rebalancer.imbalance_of(static_driver.load.per_shard)
        after = Rebalancer.imbalance_of(driver.load.per_shard)
        assert rebalancer.actions, "no moves planned under Zipf skew"
        assert after < before
        assert cluster.check_safety().is_safe

    def test_every_planned_storm_resolves_before_the_horizon(self):
        cluster = make_cluster()
        _, rebalancer = skewed_setup(cluster, horizon=260.0)
        cluster.run_until(260.0)
        summary = rebalancer.summary()
        assert summary["planned"] > 0
        assert summary["unresolved"] == 0
        assert summary["planned"] == (
            summary["committed"] + summary["aborted"]
        )

    def test_batch_never_exceeds_budget_and_moves_are_distinct_keys(self):
        cluster = make_cluster()
        _, rebalancer = skewed_setup(cluster, horizon=260.0, budget=2)
        cluster.run_until(260.0)
        by_tick = {}
        for action in rebalancer.actions:
            by_tick.setdefault(action.time, []).append(action.key)
        for instant, keys in by_tick.items():
            assert len(keys) <= 2, f"budget blown at t={instant}"
            assert len(set(keys)) == len(keys), "same key moved twice in a batch"

    def test_imbalance_of_is_max_over_mean(self):
        assert Rebalancer.imbalance_of((4, 2, 2)) == pytest.approx(1.5)
        assert Rebalancer.imbalance_of((3, 3, 3)) == pytest.approx(1.0)
        assert Rebalancer.imbalance_of(()) == 1.0
        assert Rebalancer.imbalance_of((0, 0)) == 1.0


class TestRetirement:
    def test_retired_shard_drains_fully_and_gets_nothing_back(self):
        cluster = make_cluster()
        driver, rebalancer = skewed_setup(
            cluster, horizon=300.0, threshold=5.0
        )
        rebalancer.retire_shard(0)
        cluster.run_until(300.0)
        assert cluster.keys_of_shard(0) == ()
        assert all(a.dest != 0 for a in rebalancer.actions)
        drains = [a for a in rebalancer.actions if a.reason == "retire"]
        assert drains and all(a.source == 0 for a in drains)
        assert rebalancer._retired == {0}
        assert cluster.check_safety().is_safe

    def test_retirement_drains_an_idle_cluster_and_moves_nothing_else(self):
        """No operation ever issued: the retiring shard still drains, and
        no key is moved for load nobody measured."""
        cluster = make_cluster()
        driver = WorkloadDriver(cluster)
        rebalancer = Rebalancer(
            cluster, driver=driver,
            policy=RebalancePolicy(period=10.0, max_retries=1),
        )
        owned = cluster.keys_of_shard(0)
        rebalancer.retire_shard(0)
        driver.install([])
        cluster.run_until(200.0)
        assert owned and cluster.keys_of_shard(0) == ()
        assert {a.reason for a in rebalancer.actions} == {"retire"}
        committed = [a.key for a in rebalancer.actions if a.record.committed]
        assert sorted(committed) == sorted(owned)

    def test_retire_validates_the_shard_index(self):
        cluster = make_cluster()
        driver = WorkloadDriver(cluster)
        rebalancer = Rebalancer(cluster, driver=driver)
        with pytest.raises(ConfigError):
            rebalancer.retire_shard(4)
        with pytest.raises(ConfigError):
            rebalancer.retire_shard(-1)

    def test_cannot_retire_every_shard(self):
        cluster = make_cluster(shards=2, keys=4, n=8)
        driver = WorkloadDriver(cluster)
        rebalancer = Rebalancer(cluster, driver=driver)
        rebalancer.retire_shard(0)
        with pytest.raises(ConfigError):
            rebalancer.retire_shard(1)


class TestMidRunConstruction:
    @pytest.mark.parametrize("seed", [9, 13])
    def test_a_rebalancer_built_mid_run_plans_and_resolves(self, seed):
        """The front door serializes every write from the start, so the
        rebalancer may join a run already under way."""
        cluster = make_cluster(seed=seed)
        driver = WorkloadDriver(cluster)
        plan = read_heavy_plan(
            start=5.0, end=240.0, write_period=10.0, read_rate=1.0,
            rng=cluster.rng.stream("t.rebal.plan"),
        )
        driver.install(assign_keys(
            plan,
            shard_skewed_key_picker(
                cluster, cluster.rng.stream("t.rebal.keys"), distribution="zipf"
            ),
        ))
        cluster.run_until(60.0)
        before = sum(driver.load.per_shard)
        rebalancer = Rebalancer(
            cluster, driver=driver,
            policy=RebalancePolicy(
                period=15.0, threshold=1.2, max_retries=1, plan_until=170.0
            ),
        )
        cluster.run_until(260.0)
        assert before > 0
        assert rebalancer.samples[0].time == 75.0
        assert rebalancer.actions and all(a.time > 60.0 for a in rebalancer.actions)
        assert rebalancer.summary()["unresolved"] == 0
        assert cluster.check_safety().is_safe


class TestDeterminism:
    @staticmethod
    def _storm_run():
        """A rebalanced run under churn: concurrent cross-key storms."""
        cluster = make_cluster(n=24, seed=13)
        cluster.attach_churn(rate=0.02, min_stay=15.0)
        driver, rebalancer = skewed_setup(cluster, horizon=260.0, budget=3)
        cluster.run_until(260.0)
        from repro.cluster.history import cluster_digest

        return cluster_digest(cluster.close()), rebalancer.digest()

    def test_concurrent_storm_replays_byte_identically(self):
        first = self._storm_run()
        second = self._storm_run()
        assert first == second

    def test_different_seed_perturbs_the_rebalance_digest(self):
        cluster_a = make_cluster(seed=9)
        _, rebal_a = skewed_setup(cluster_a, horizon=200.0)
        cluster_a.run_until(200.0)
        cluster_b = make_cluster(seed=10)
        _, rebal_b = skewed_setup(cluster_b, horizon=200.0)
        cluster_b.run_until(200.0)
        assert rebal_a.digest() != rebal_b.digest()

    def test_summary_reports_the_run_shape(self):
        cluster = make_cluster()
        _, rebalancer = skewed_setup(cluster, horizon=200.0)
        cluster.run_until(200.0)
        summary = rebalancer.summary()
        assert summary["samples"] == len(rebalancer.samples)
        assert summary["planned"] == len(rebalancer.actions)
        assert summary["peak_imbalance"] >= summary["final_imbalance"]
        assert summary["retired"] == []
