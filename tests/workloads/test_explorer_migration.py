"""Explorer regressions for the resharding axis and cluster taxonomy."""

import pytest

from repro.faults.plan import FaultPlan, LossFault
from repro.protocols.common import MIGRATION_PAYLOADS
from repro.sim.errors import ExperimentError
from repro.workloads.explorer import (
    DEFAULT_PLAN_NAMES,
    PLANS,
    ScenarioSpec,
    build_plan,
    classify_scenario,
    run_scenario,
    scenario_matrix,
)


class TestMigrationPlans:
    def test_library_offers_the_four_storm_plans(self):
        for name in ("mig-crash-copy", "mig-crash-install", "mig-loss",
                     "mig-storm"):
            assert name in PLANS
            plan = build_plan(name, delta=5.0, horizon=120.0, n=18)
            assert not plan.is_empty

    def test_default_sweep_excludes_migration_plans(self):
        assert not any(n.startswith("mig-") for n in DEFAULT_PLAN_NAMES)
        # But every plan outside the opt-in families (mig-, rebal-)
        # stays in.
        assert set(DEFAULT_PLAN_NAMES) == {
            n for n in PLANS if not n.startswith(("mig-", "rebal-"))
        }

    def test_mig_loss_is_in_model_but_mig_storm_is_not(self):
        def spec_with(name):
            return ScenarioSpec(
                n=18, delta=5.0, shards=3, keys=6, migrations=2,
                plan=build_plan(name, 5.0, 120.0, 18),
            )

        assert classify_scenario(spec_with("mig-loss"), known_bound=5.0).in_model
        assert classify_scenario(
            spec_with("mig-crash-copy"), known_bound=5.0
        ).in_model
        storm = classify_scenario(spec_with("mig-storm"), known_bound=5.0)
        assert not storm.in_model

    def test_migration_only_losses_are_stripped_before_classification(self):
        """Losing 100% of handoff coordination traffic is in-model —
        the register protocol makes no hypothesis about it."""
        mig_only = ScenarioSpec(
            n=18, delta=5.0, shards=3, keys=6, migrations=2,
            plan=FaultPlan.of(
                LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS)
            ),
        )
        assert classify_scenario(mig_only, known_bound=5.0).in_model
        # The same loss rate over *register* traffic stays out-of-model.
        register_too = ScenarioSpec(
            n=18, delta=5.0, shards=3, keys=6, migrations=2,
            plan=FaultPlan.of(LossFault(probability=1.0)),
        )
        assert not classify_scenario(register_too, known_bound=5.0).in_model


class TestShardAwareChurnCap:
    def test_cluster_cells_use_the_smallest_shards_cap(self):
        # n=18 over 3 shards -> n_s = 6, cap = (1 - 1/6)/(3*5) ~ 0.0556.
        sharded = ScenarioSpec(n=18, delta=5.0, shards=3, keys=6,
                               churn_rate=0.056)
        verdict = classify_scenario(sharded, known_bound=5.0)
        assert not verdict.in_model
        assert any("per-shard cap" in r for r in verdict.reasons)
        # The same rate is fine for the single 18-process population
        # (cap 1/(3*5) ~ 0.0667) — the sharded cap is strictly tighter.
        single = ScenarioSpec(n=18, delta=5.0, churn_rate=0.056)
        assert classify_scenario(single, known_bound=5.0).in_model

    def test_below_the_per_shard_cap_stays_in_model(self):
        spec = ScenarioSpec(n=18, delta=5.0, shards=3, keys=6,
                            churn_rate=0.05)
        assert classify_scenario(spec, known_bound=5.0).in_model

    def test_single_population_message_text_unchanged(self):
        spec = ScenarioSpec(n=10, delta=5.0, churn_rate=0.08)
        verdict = classify_scenario(spec, known_bound=5.0)
        assert any(
            "exceeds the synchronous cap 1/(3delta)" in r
            for r in verdict.reasons
        )


class TestMigrationSpecSurface:
    def test_label_and_round_trip(self):
        spec = ScenarioSpec(n=18, shards=3, keys=6, migrations=2)
        assert " mig=2" in spec.label()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_legacy_specs_omit_the_migrations_field(self):
        """Zero-migration specs serialize byte-identically to PR 5."""
        spec = ScenarioSpec(n=18, shards=3, keys=6)
        assert "migrations" not in spec.to_dict()
        assert " mig=" not in spec.label()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_run_scenario_validates_the_migration_axis(self):
        with pytest.raises(ExperimentError):
            run_scenario(ScenarioSpec(n=18, shards=3, keys=6, migrations=-1))
        with pytest.raises(ExperimentError):
            run_scenario(ScenarioSpec(n=18, migrations=1))  # single shard
        with pytest.raises(ExperimentError):
            run_scenario(
                ScenarioSpec(n=18, shards=3, keys=1, migrations=1)
            )  # nothing to migrate around


class TestMatrixSkipRule:
    def test_matrix_skips_impossible_migration_cells(self):
        specs = list(scenario_matrix(
            seed=0,
            protocol=("sync",),
            delay=("sync",),
            churn_rate=(0.0,),
            plan=("none",),
            seeds_per_combo=1,
            n=12,
            delta=5.0,
            horizon=60.0,
            keys=(1, 4),
            shards=(1, 2),
            migrations=(0, 2),
        ))
        migrating = [s for s in specs if s.migrations]
        # Only the (keys=4, shards=2) combination can host a handoff.
        assert len(migrating) == 1
        assert (migrating[0].keys, migrating[0].shards) == (4, 2)
        # Zero-migration cells run at every combination regardless.
        assert len([s for s in specs if not s.migrations]) == 4
