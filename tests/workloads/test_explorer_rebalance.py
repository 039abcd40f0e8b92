"""Explorer regressions for the rebalance axis and its storm plans.

``rebalance=B`` puts a budget-``B`` :class:`~repro.cluster.rebalance.
Rebalancer` into the cell instead of hand-scheduled migrations — the
policy decides what moves, so a safety violation here is a
rebalancer-induced in-model bug.  These tests pin the plan library,
the spec surface (byte-compatible when the axis is unused), the
validation and matrix skip rules, and the verdicts of the pinned
rebal storms.
"""

import pytest

from repro.sim.errors import ExperimentError
from repro.workloads.explorer import (
    DEFAULT_PLAN_NAMES,
    PLANS,
    VERDICT_BUG,
    ScenarioSpec,
    build_plan,
    run_scenario,
    scenario_matrix,
)


def rebal_spec(plan_name="none", **overrides) -> ScenarioSpec:
    params = dict(
        n=18, delta=5.0, churn_rate=0.02, seed=0, horizon=150.0,
        keys=6, shards=3, rebalance=2,
    )
    params.update(overrides)
    plan = build_plan(plan_name, params["delta"], params["horizon"], params["n"])
    return ScenarioSpec(plan=plan, **params)


class TestRebalancePlans:
    def test_library_offers_the_three_rebal_storm_plans(self):
        for name in ("rebal-loss", "rebal-crash", "rebal-storm"):
            assert name in PLANS
            plan = build_plan(name, delta=5.0, horizon=150.0, n=18)
            assert not plan.is_empty

    def test_default_sweep_excludes_rebal_plans(self):
        assert not any(n.startswith("rebal-") for n in DEFAULT_PLAN_NAMES)
        assert set(DEFAULT_PLAN_NAMES) == {
            n for n in PLANS if not n.startswith(("mig-", "rebal-"))
        }


class TestRebalanceSpecSurface:
    def test_label_and_round_trip(self):
        spec = ScenarioSpec(n=18, shards=3, keys=6, rebalance=2)
        assert " rebal=2" in spec.label()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_legacy_specs_omit_the_rebalance_field(self):
        """Zero-rebalance specs serialize byte-identically to PR 6."""
        spec = ScenarioSpec(n=18, shards=3, keys=6, migrations=2)
        assert "rebalance" not in spec.to_dict()
        assert " rebal=" not in spec.label()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_run_scenario_validates_the_rebalance_axis(self):
        with pytest.raises(ExperimentError):
            run_scenario(ScenarioSpec(n=18, shards=3, keys=6, rebalance=-1))
        with pytest.raises(ExperimentError):
            run_scenario(ScenarioSpec(n=18, rebalance=1))  # single shard
        with pytest.raises(ExperimentError):
            run_scenario(ScenarioSpec(n=18, shards=3, keys=1, rebalance=1))


class TestRebalanceOutcomes:
    def test_quiet_rebalanced_cell_is_not_a_bug_and_reports_planning(self):
        outcome = run_scenario(rebal_spec("none"))
        assert outcome.verdict != VERDICT_BUG, outcome.first_violation
        assert outcome.safe
        data = outcome.to_dict()
        assert data["migrations_planned"] == outcome.migrations_planned
        resolved = outcome.migrations_committed + outcome.migrations_aborted
        assert resolved == outcome.migrations_planned

    def test_total_coordination_loss_aborts_every_policy_move(self):
        outcome = run_scenario(rebal_spec("rebal-loss"))
        assert outcome.verdict != VERDICT_BUG, outcome.first_violation
        assert outcome.migrations_committed == 0
        assert outcome.migrations_aborted == outcome.migrations_planned
        assert outcome.safe

    def test_rebalanced_cell_replays_byte_identically(self):
        a = run_scenario(rebal_spec("rebal-crash"))
        b = run_scenario(rebal_spec("rebal-crash"))
        assert a.digest == b.digest
        assert a.to_dict() == b.to_dict()

    def test_rebalance_axis_perturbs_the_digest(self):
        with_rebal = run_scenario(rebal_spec("none"))
        without = run_scenario(rebal_spec("none", rebalance=0))
        assert with_rebal.migrations_planned > 0
        assert with_rebal.digest != without.digest


class TestMatrixSkipRule:
    def test_matrix_skips_impossible_rebalance_cells(self):
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
            rebalance=(0, 2),
        ))
        rebalanced = [s for s in specs if s.rebalance]
        # Only the (keys=4, shards=2) combination can host a rebalancer.
        assert len(rebalanced) == 1
        assert (rebalanced[0].keys, rebalanced[0].shards) == (4, 2)
        assert len([s for s in specs if not s.rebalance]) == 4
