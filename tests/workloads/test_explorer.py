"""Unit tests for the adversarial scenario explorer."""

import json
import re
from dataclasses import fields

import pytest

from repro.faults import DelaySpikeFault, FaultPlan, LossFault, PartitionFault
from repro.sim.errors import ExperimentError
from repro.workloads.explorer import (
    AXES,
    DEFAULT_PLAN_NAMES,
    PLANS,
    ExplorationReport,
    ScenarioSpec,
    build_plan,
    classify_scenario,
    explore,
    run_scenario,
    scenario_matrix,
    shrink_plan,
)


class TestPlanLibrary:
    @pytest.mark.parametrize("name", DEFAULT_PLAN_NAMES)
    def test_every_library_plan_builds(self, name):
        plan = build_plan(name, delta=5.0, horizon=120.0, n=10)
        assert plan.name == name

    def test_unknown_plan_rejected(self):
        with pytest.raises(ExperimentError):
            build_plan("gremlins", delta=5.0, horizon=120.0, n=10)

    def test_light_loss_is_in_model_heavy_is_not(self):
        light = build_plan("light-loss", 5.0, 120.0, 10)
        heavy = build_plan("heavy-loss", 5.0, 120.0, 10)
        assert light.classify(5.0, known_bound=5.0).in_model
        assert not heavy.classify(5.0, known_bound=5.0).in_model

    def test_paired_plans_share_one_construction(self):
        assert PLANS["mig-loss"] is PLANS["rebal-loss"]
        assert PLANS["mig-storm"] is PLANS["rebal-storm"]
        copy, install, both = (
            build_plan(name, 5.0, 120.0, 18)
            for name in ("mig-crash-copy", "mig-crash-install", "rebal-crash")
        )
        assert both.crashes == copy.crashes + install.crashes


class TestSpecSerialization:
    def test_round_trip(self):
        spec = ScenarioSpec(
            protocol="es",
            delay="es",
            churn_rate=0.02,
            plan=build_plan("combo", 5.0, 120.0, 10),
            seed=7,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serializable(self):
        spec = ScenarioSpec(plan=build_plan("partition-drop", 5.0, 120.0, 10))
        assert ScenarioSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_sharded_spec_round_trips(self):
        spec = ScenarioSpec(shards=4, keys=8, key_dist="zipf", n=16)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert "shards=4" in spec.label()

    def test_to_dict_follows_the_field_order(self):
        spec = ScenarioSpec(n=18, shards=3, keys=6, migrations=2, rebalance=1)
        assert list(spec.to_dict()) == [f.name for f in fields(ScenarioSpec)]

    def test_legacy_spec_dict_defaults_to_one_shard(self):
        payload = ScenarioSpec().to_dict()
        payload.pop("shards")
        assert ScenarioSpec.from_dict(payload).shards == 1


class TestSpecCheck:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -5.0])
    @pytest.mark.parametrize("name", ["delta", "horizon"])
    def test_a_bad_dimension_is_refused_by_name(self, name, value):
        with pytest.raises(ExperimentError, match=f"{name} must be finite and positive"):
            ScenarioSpec(**{name: value})

    def test_an_unknown_delay_model_is_refused(self):
        with pytest.raises(ExperimentError, match="unknown delay model 'warp'"):
            ScenarioSpec(delay="warp")


class TestShardedScenarios:
    def test_clean_sharded_cell_is_ok_and_reproducible(self):
        spec = ScenarioSpec(
            protocol="sync", n=16, churn_rate=0.02, seed=3,
            horizon=100.0, keys=6, key_dist="zipf", shards=3,
        )
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert a.verdict == "ok"
        assert a.safe
        assert a.digest == b.digest
        assert a.network_counters == b.network_counters

    def test_sharded_heavy_loss_is_expected_breakage(self):
        spec = ScenarioSpec(
            protocol="sync", n=16, churn_rate=0.0, seed=1,
            horizon=100.0, keys=6, shards=2, read_rate=1.0,
            plan=build_plan("heavy-loss", 5.0, 100.0, 16),
        )
        outcome = run_scenario(spec)
        assert not outcome.classification.in_model
        assert outcome.fault_counters.get("lost", 0) > 0
        if outcome.violated:
            assert outcome.verdict == "expected-breakage"
        else:
            assert outcome.verdict == "near-miss"

    def test_shard_scoped_partition_preserves_group_fraction(self):
        """A library partition naming 1/3 of the total population must
        split a shard's quorum 1/3-vs-2/3, not isolate every seed of
        the (smaller) shard from its joiners."""
        from repro.workloads.cluster import _shard_scoped_plan

        plan = build_plan("partition-drop", 5.0, 120.0, 18)
        assert len(plan.partitions[0].group_a) == 6  # 1/3 of 18
        scoped = _shard_scoped_plan(plan, index=1, shard_n=6, total_n=18)
        group = scoped.partitions[0].group_a
        assert group == frozenset({"s1.p0001", "s1.p0002"})  # 1/3 of 6
        # Never the whole shard, even for a full-population group.
        full = build_plan("partition-drop", 5.0, 120.0, 3)
        wide = _shard_scoped_plan(
            FaultPlan(partitions=full.partitions, name="x"),
            index=0, shard_n=1, total_n=3,
        )
        assert len(wide.partitions[0].group_a) == 1

    def test_shard_scoped_two_group_partition_stays_disjoint(self):
        """Explicit two-group partitions rescale to disjoint ranges."""
        from repro.workloads.cluster import _shard_scoped_plan

        plan = FaultPlan.of(
            PartitionFault(
                start=0.0,
                end=10.0,
                group_a=frozenset(f"p{i:04d}" for i in range(1, 7)),
                group_b=frozenset(f"p{i:04d}" for i in range(7, 13)),
            ),
            name="two-sided",
        )
        scoped = _shard_scoped_plan(plan, index=1, shard_n=6, total_n=18)
        fault = scoped.partitions[0]
        assert fault.group_a == frozenset({"s1.p0001", "s1.p0002"})
        assert fault.group_b == frozenset({"s1.p0003", "s1.p0004"})
        # A 1-process shard cannot hold two disjoint groups: plain
        # mapping keeps the (disjoint) originals and the plan valid.
        tiny = _shard_scoped_plan(plan, index=0, shard_n=1, total_n=18)
        assert tiny.partitions[0].group_a == frozenset(
            f"s0.p{i:04d}" for i in range(1, 7)
        )

    def test_install_shard_scoped_lands_the_rescaled_plan_on_every_shard(self):
        from repro.cluster import ClusterConfig, ClusterSystem
        from repro.workloads.cluster import _shard_scoped_plan, install_shard_scoped

        cluster = ClusterSystem(ClusterConfig(shards=3, keys=3, n=17, seed=1))
        plan = build_plan("partition-drop", 5.0, 120.0, 17)
        install_shard_scoped(cluster, plan)
        for index, shard_n in enumerate((6, 6, 5)):
            installed = cluster.shards[index].faults.plan
            assert installed == _shard_scoped_plan(plan, index, shard_n, 17)
            assert min(installed.partitions[0].group_a).startswith(f"s{index}.")

    def test_round_robin_migrations_hop_on_when_a_key_comes_round_again(self):
        from repro.cluster import ClusterConfig, ClusterSystem
        from repro.workloads.cluster import schedule_round_robin_migrations

        cluster = ClusterSystem(ClusterConfig(shards=3, keys=2, n=12, seed=1))
        a, b = (cluster.shard_of(key) for key in cluster.keys)
        records = schedule_round_robin_migrations(cluster, 4, horizon=100.0)
        assert records == list(cluster.migration_records())
        assert [r.key for r in records] == [*cluster.keys, *cluster.keys]
        # First pass one shard over, second pass two: no bouncing back.
        assert [r.dest for r in records] == [
            (a + 1) % 3, (b + 1) % 3, (a + 2) % 3, (b + 2) % 3
        ]
        assert [r.scheduled_at for r in records] == pytest.approx([15, 25, 35, 45])
        assert schedule_round_robin_migrations(cluster, 0, horizon=100.0) == []

    def test_zero_shards_rejected(self):
        with pytest.raises(ExperimentError):
            run_scenario(ScenarioSpec(shards=0))
        with pytest.raises(ExperimentError):
            explore(budget=1, shards=(0,))

    def test_shard_axis_multiplies_the_matrix(self):
        specs = list(
            scenario_matrix(
                seed=0, protocol=("sync",), delay=("sync",),
                churn_rate=(0.0,), plan=("none",),
                seeds_per_combo=1, n=8, delta=5.0, horizon=50.0,
                keys=(1, 4), key_dist="uniform", shards=(1, 2),
            )
        )
        assert len(specs) == 4
        assert [(s.keys, s.shards) for s in specs] == [
            (1, 1), (1, 2), (4, 1), (4, 2)
        ]


class TestClassifyScenario:
    def test_baseline_sync_scenario_is_in_model(self):
        spec = ScenarioSpec(protocol="sync", delay="sync", churn_rate=0.02)
        assert classify_scenario(spec, known_bound=5.0).in_model

    def test_sync_protocol_under_es_delays_is_out_of_model(self):
        spec = ScenarioSpec(protocol="sync", delay="es")
        verdict = classify_scenario(spec, known_bound=None)
        assert not verdict.in_model
        assert "synchronous system" in verdict.reasons[0]

    def test_abd_under_churn_is_out_of_model(self):
        spec = ScenarioSpec(protocol="abd", delay="sync", churn_rate=0.02)
        assert not classify_scenario(spec, known_bound=5.0).in_model

    def test_churn_above_the_cap_is_out_of_model(self):
        spec = ScenarioSpec(protocol="sync", delay="sync", churn_rate=0.1, delta=5.0)
        verdict = classify_scenario(spec, known_bound=5.0)
        assert not verdict.in_model
        assert any("1/(3delta)" in r for r in verdict.reasons)

    def test_long_defer_partition_breaks_the_dual_p2p_bound(self):
        # In-model under the plain sync model (duration <= delta), but
        # the dual model's tighter p2p bound (delta/2) is exceeded.
        plan = FaultPlan.of(
            PartitionFault(
                start=10.0, end=10.0 + 0.8 * 5.0, group_a=frozenset({"p0001"}),
                mode="defer",
            )
        )
        sync_spec = ScenarioSpec(protocol="sync", delay="sync", plan=plan)
        dual_spec = ScenarioSpec(protocol="sync", delay="dual", plan=plan)
        assert classify_scenario(sync_spec, known_bound=5.0).in_model
        assert not classify_scenario(dual_spec, known_bound=5.0).in_model

    def test_post_gst_spike_under_es_delays_is_out_of_model(self):
        # known_bound is None for the ES model, but eventual synchrony
        # still promises post-GST delivery within delta.
        spike = FaultPlan.of(DelaySpikeFault(start=50.0, end=60.0, factor=4.0))
        pre_gst = FaultPlan.of(DelaySpikeFault(start=0.0, end=10.0, factor=4.0))
        assert not classify_scenario(
            ScenarioSpec(protocol="es", delay="es", plan=spike), known_bound=None
        ).in_model
        assert classify_scenario(
            ScenarioSpec(protocol="es", delay="es", plan=pre_gst), known_bound=None
        ).in_model

    def test_naive_protocol_violations_count_as_bugs(self):
        # The deliberately broken protocol gets no excuse: its scenario
        # classifies in-model, so a violation reports as a bug.
        spec = ScenarioSpec(protocol="naive", delay="sync")
        assert classify_scenario(spec, known_bound=5.0).in_model


class TestRunScenario:
    def test_clean_sync_run_is_ok(self):
        outcome = run_scenario(ScenarioSpec(horizon=80.0))
        assert outcome.verdict == "ok"
        assert outcome.safe and outcome.live
        assert outcome.checked_count > 0
        assert outcome.fault_counters == {}

    def test_outcome_digest_is_reproducible(self):
        spec = ScenarioSpec(
            churn_rate=0.02, plan=build_plan("heavy-loss", 5.0, 80.0, 10), horizon=80.0
        )
        assert run_scenario(spec).digest == run_scenario(spec).digest

    def test_heavy_loss_on_sync_is_expected_breakage(self):
        spec = ScenarioSpec(
            plan=build_plan("heavy-loss", 5.0, 120.0, 10), seed=0
        )
        outcome = run_scenario(spec)
        assert outcome.violated
        assert outcome.verdict == "expected-breakage"
        assert outcome.first_violation is not None

    def test_faults_that_fire_without_violation_are_near_miss(self):
        spec = ScenarioSpec(
            churn_rate=0.02,
            plan=build_plan("light-loss", 5.0, 120.0, 10),
            seed=0,
        )
        outcome = run_scenario(spec)
        assert outcome.safe
        assert outcome.verdict == "near-miss"
        assert outcome.fault_counters["lost"] > 0

    def test_outcome_dict_is_json_serializable(self):
        outcome = run_scenario(ScenarioSpec(horizon=60.0))
        blob = json.dumps(outcome.to_dict())
        assert json.loads(blob)["verdict"] == "ok"


class TestShrinking:
    def test_combo_shrinks_to_fewer_faults(self):
        spec = ScenarioSpec(plan=build_plan("combo", 5.0, 120.0, 10), seed=0)
        assert run_scenario(spec).violated  # precondition
        shrunk, runs = shrink_plan(spec, budget=12)
        assert 0 < runs <= 12
        assert len(shrunk) < len(spec.plan)
        # The shrunk plan must still reproduce the violation.
        assert run_scenario(
            ScenarioSpec(
                protocol=spec.protocol, delay=spec.delay, seed=spec.seed, plan=shrunk
            )
        ).violated

    def test_window_bisection_narrows_a_single_fault(self):
        spec = ScenarioSpec(plan=build_plan("heavy-loss", 5.0, 120.0, 10), seed=0)
        assert run_scenario(spec).violated  # precondition
        shrunk, _ = shrink_plan(spec, budget=10)
        (loss,) = shrunk.losses
        original = spec.plan.losses[0]
        original_end = original.end if original.end is not None else spec.horizon
        assert loss.end is not None
        assert (loss.end - loss.start) < (original_end - original.start)


    def test_irrelevant_faults_shrink_to_the_empty_plan(self):
        # abd under churn violates with no faults at all, so the loss
        # fault is not part of the minimal cause and ddmin removes it.
        spec = ScenarioSpec(
            protocol="abd",
            churn_rate=0.02,
            plan=build_plan("heavy-loss", 5.0, 120.0, 10),
            seed=0,
        )
        assert run_scenario(spec).violated  # precondition
        shrunk, _ = shrink_plan(spec, budget=12)
        assert shrunk.is_empty


class TestShrunkVerdict:
    def test_shrunk_plan_is_rejudged(self):
        report = explore(
            budget=1,
            protocol=("abd",),
            delay=("sync",),
            churn_rate=(0.02,),
            plan=("heavy-loss",),
            shrink=True,
        )
        (outcome,) = report.outcomes
        assert outcome.verdict == "expected-breakage"
        assert outcome.shrunk_plan is not None and outcome.shrunk_plan.is_empty
        # Even minimized to nothing, the cell stays out-of-model (abd
        # under churn), so no escalation.
        assert outcome.shrunk_verdict == "expected-breakage"
        assert outcome.to_dict()["shrunk_verdict"] == "expected-breakage"
        assert report.bugs == []

    def test_an_in_model_shrunk_verdict_escalates_to_a_bug(self):
        from dataclasses import replace

        outcome = run_scenario(
            ScenarioSpec(plan=build_plan("heavy-loss", 5.0, 120.0, 10), seed=0)
        )
        assert outcome.verdict == "expected-breakage"
        report = ExplorationReport(root_seed=0, budget=1)
        report.outcomes.append(replace(outcome, shrunk_verdict="bug"))
        assert len(report.bugs) == 1


class TestExplore:
    def test_budget_truncates_the_matrix(self):
        report = explore(
            budget=3,
            protocol=("sync",),
            delay=("sync",),
            churn_rate=(0.0,),
            plan=("none", "light-loss"),
            horizon=60.0,
            shrink=False,
        )
        assert len(report.outcomes) == 2  # matrix smaller than budget
        assert report.skipped_cells == 0

    def test_truncation_is_recorded_not_silent(self):
        report = explore(
            budget=1,
            protocol=("sync",),
            delay=("sync",),
            churn_rate=(0.0,),
            plan=("none", "light-loss"),
            horizon=60.0,
            shrink=False,
        )
        assert len(report.outcomes) == 1
        assert report.skipped_cells == 1
        assert report.to_dict()["skipped_cells"] == 1
        assert "NOT run" in report.summary()

    def test_matrix_order_is_deterministic(self):
        kwargs = dict(
            seed=1,
            protocol=("sync", "es"),
            delay=("sync",),
            churn_rate=(0.0, 0.02),
            plan=("none",),
            seeds_per_combo=2,
            n=10,
            delta=5.0,
            horizon=60.0,
        )
        first = [s.label() for s in scenario_matrix(**kwargs)]
        second = [s.label() for s in scenario_matrix(**kwargs)]
        assert first == second
        assert len(first) == 8

    def test_report_is_reproducible(self):
        kwargs = dict(
            budget=4,
            seed=5,
            protocol=("sync",),
            delay=("sync",),
            churn_rate=(0.02,),
            plan=("heavy-loss", "none"),
            horizon=60.0,
        )
        a = explore(**kwargs).to_dict()
        b = explore(**kwargs).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_violations_collect_into_counterexamples(self):
        report = explore(
            budget=2,
            protocol=("sync",),
            delay=("sync",),
            churn_rate=(0.0,),
            plan=("partition-drop",),
            shrink=True,
        )
        payload = report.to_dict()
        assert payload["counts"].get("expected-breakage", 0) >= 1
        assert payload["counterexamples"]
        entry = payload["counterexamples"][0]
        assert entry["shrunk_plan"]["faults"]
        assert entry["classification_reasons"]

    def test_rejects_bad_budget_and_delay(self):
        with pytest.raises(ExperimentError):
            explore(budget=0)
        with pytest.raises(ExperimentError):
            explore(budget=1, delay=("warp",))

    def test_the_table_sweeps_spec_fields_in_matrix_order(self):
        assert {axis.field for axis in AXES} <= {f.name for f in fields(ScenarioSpec)}
        assert [axis.field for axis in AXES if axis.swept] == [
            "plan", "protocol", "delay", "churn_rate", "keys", "shards",
            "migrations", "rebalance", "seed",
        ]

    @pytest.mark.parametrize(
        "axes, named",
        [
            (dict(seeds_per_combo=0), "seeds_per_combo=0"),
            (dict(plan=()), "plan=()"),
            (dict(migrations=(2,)), "migrations=(2,)"),
            (dict(migrations=(0, 2), rebalance=(1,), shards=(3,)), "rebalance=(1,)"),
        ],
    )
    def test_an_empty_sweep_is_refused_naming_its_axis(self, axes, named):
        with pytest.raises(ExperimentError, match=re.escape(f"the sweep is empty: {named}")):
            explore(budget=1, **axes)

    def test_an_unknown_axis_is_refused_by_name(self):
        with pytest.raises(ExperimentError, match="unknown sweep axis 'plan_names'"):
            explore(budget=1, plan_names=("none",))

    def test_summary_mentions_counts(self):
        report = ExplorationReport(root_seed=0, budget=1)
        assert "explored 0 scenarios" in report.summary()
