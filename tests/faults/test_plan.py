"""Unit tests for fault plans: validation, matching, taxonomy, serialization."""

import pytest

from repro.faults import (
    LOSS_COVER_THRESHOLD,
    CrashFault,
    DelaySpikeFault,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.sim.errors import ConfigError


class TestFaultValidation:
    def test_loss_probability_must_be_in_unit_interval(self):
        with pytest.raises(ConfigError):
            LossFault(probability=0.0)
        with pytest.raises(ConfigError):
            LossFault(probability=1.5)

    def test_loss_window_must_be_ordered(self):
        with pytest.raises(ConfigError):
            LossFault(probability=0.5, start=10.0, end=10.0)

    @pytest.mark.parametrize("fault", [LossFault, DelaySpikeFault], ids=["loss", "spike"])
    @pytest.mark.parametrize(
        "window",
        [
            dict(start=float("nan")),
            dict(start=float("inf")),
            dict(start=float("-inf")),
            dict(start=5.0, end=float("nan")),
        ],
        ids=["nan-start", "inf-start", "-inf-start", "nan-end"],
    )
    def test_link_fault_windows_must_be_finite(self, fault, window):
        # A NaN ``end`` used to pass (``nan <= start`` is false) and then
        # matched forever.
        kind = {"probability": 0.5} if fault is LossFault else {"factor": 2.0}
        with pytest.raises(ConfigError, match="window"):
            fault(**kind, **window)

    def test_an_infinite_end_is_forever(self):
        assert LossFault(probability=0.5, end=float("inf")).matches("a", "b", "X", 1e300)

    @pytest.mark.parametrize(
        "bounds",
        [
            dict(start=float("nan"), end=5.0),
            dict(start=float("-inf"), end=5.0),
            dict(start=0.0, end=float("nan")),
            dict(start=0.0, end=float("inf")),
        ],
        ids=["nan-start", "-inf-start", "nan-end", "inf-end"],
    )
    @pytest.mark.parametrize("mode", ["drop", "defer"])
    def test_partition_bounds_must_be_finite(self, bounds, mode):
        # ``end=inf, mode="defer"`` used to be accepted and die as a
        # SchedulerError when the first message was parked on it.
        with pytest.raises(ConfigError, match="finite"):
            PartitionFault(group_a=frozenset({"a"}), mode=mode, **bounds)

    def test_partition_needs_nonempty_disjoint_groups(self):
        with pytest.raises(ConfigError):
            PartitionFault(start=0.0, end=5.0, group_a=frozenset())
        with pytest.raises(ConfigError):
            PartitionFault(
                start=0.0,
                end=5.0,
                group_a=frozenset({"a"}),
                group_b=frozenset({"a", "b"}),
            )

    def test_partition_rejects_explicit_empty_group_b(self):
        # group_b=None means "everyone else"; an explicit empty set
        # would be a silently inert fault.
        with pytest.raises(ConfigError):
            PartitionFault(
                start=0.0, end=5.0, group_a=frozenset({"a"}), group_b=frozenset()
            )

    def test_partition_mode_checked(self):
        with pytest.raises(ConfigError):
            PartitionFault(start=0.0, end=5.0, group_a=frozenset({"a"}), mode="eat")

    def test_spike_must_change_the_delay(self):
        with pytest.raises(ConfigError):
            DelaySpikeFault(factor=1.0, extra=0.0)
        with pytest.raises(ConfigError):
            DelaySpikeFault(factor=-2.0)

    def test_crash_victim_and_occurrence_checked(self):
        with pytest.raises(ConfigError):
            CrashFault(phase="WriteMsg", victim="bystander")
        with pytest.raises(ConfigError):
            CrashFault(phase="WriteMsg", occurrence=0)


class TestMatching:
    def test_loss_filters_by_window_type_and_endpoints(self):
        loss = LossFault(
            probability=0.5,
            start=10.0,
            end=20.0,
            payload_types=frozenset({"Reply"}),
            sender="a",
        )
        assert loss.matches("a", "b", "Reply", 15.0)
        assert not loss.matches("a", "b", "Reply", 5.0)  # before window
        assert not loss.matches("a", "b", "Reply", 20.0)  # end exclusive
        assert not loss.matches("a", "b", "Inquiry", 15.0)  # wrong type
        assert not loss.matches("c", "b", "Reply", 15.0)  # wrong sender

    def test_partition_severs_only_across_the_cut_while_active(self):
        part = PartitionFault(start=10.0, end=20.0, group_a=frozenset({"a", "b"}))
        assert part.severs("a", "x", 15.0)
        assert part.severs("x", "b", 15.0)  # bidirectional
        assert not part.severs("a", "b", 15.0)  # same side
        assert not part.severs("x", "y", 15.0)  # both outside group_a
        assert not part.severs("a", "x", 25.0)  # healed

    def test_two_sided_partition_ignores_third_parties(self):
        part = PartitionFault(
            start=0.0,
            end=10.0,
            group_a=frozenset({"a"}),
            group_b=frozenset({"b"}),
        )
        assert part.severs("a", "b", 5.0)
        assert not part.severs("a", "c", 5.0)  # c is in neither group

    def test_crash_matches_phase_and_pinned_pid(self):
        crash = CrashFault(phase="WriteMsg", victim="sender", pid="w")
        assert crash.matches("w", "r", "WriteMsg")
        assert not crash.matches("x", "r", "WriteMsg")
        assert not crash.matches("w", "r", "Reply")


class TestClassification:
    def test_empty_plan_is_in_model(self):
        assert FaultPlan().classify(5.0, known_bound=5.0).in_model

    def test_light_loss_is_within_the_cover_threshold(self):
        plan = FaultPlan.of(LossFault(probability=LOSS_COVER_THRESHOLD))
        assert plan.classify(5.0, known_bound=5.0).in_model

    def test_heavy_loss_is_out_of_model(self):
        verdict = FaultPlan.of(LossFault(probability=0.5)).classify(
            5.0, known_bound=5.0
        )
        assert not verdict.in_model
        assert "reliable channels" in verdict.reasons[0]

    def test_short_defer_partition_is_in_model_drop_is_not(self):
        group = frozenset({"a"})
        defer = FaultPlan.of(
            PartitionFault(start=0.0, end=4.0, group_a=group, mode="defer")
        )
        drop = FaultPlan.of(
            PartitionFault(start=0.0, end=4.0, group_a=group, mode="drop")
        )
        long_defer = FaultPlan.of(
            PartitionFault(start=0.0, end=9.0, group_a=group, mode="defer")
        )
        assert defer.classify(5.0, known_bound=5.0).in_model
        assert not drop.classify(5.0, known_bound=5.0).in_model
        assert not long_defer.classify(5.0, known_bound=5.0).in_model

    def test_spike_out_of_model_only_under_a_known_bound(self):
        plan = FaultPlan.of(DelaySpikeFault(factor=3.0))
        assert not plan.classify(5.0, known_bound=5.0).in_model
        assert plan.classify(5.0, known_bound=None).in_model

    def test_crashes_are_departures_hence_in_model(self):
        plan = FaultPlan.of(CrashFault(phase="WriteMsg", victim="sender"))
        assert plan.classify(5.0, known_bound=5.0).in_model


class TestComposition:
    def test_of_buckets_faults_by_kind(self):
        plan = FaultPlan.of(
            CrashFault(phase="WriteMsg"),
            LossFault(probability=0.2),
            PartitionFault(start=0.0, end=1.0, group_a=frozenset({"a"})),
            DelaySpikeFault(extra=2.0),
            name="mixed",
        )
        assert len(plan) == 4
        assert len(plan.losses) == 1
        assert len(plan.crashes) == 1
        assert not plan.is_empty

    def test_merged_keeps_both_plans_faults(self):
        a = FaultPlan.of(LossFault(probability=0.2), name="a")
        b = FaultPlan.of(DelaySpikeFault(extra=1.0), name="b")
        merged = a.merged(b)
        assert len(merged) == 2
        assert merged.name == "a+b"

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(name="empty"),
            FaultPlan.of(
                LossFault(
                    probability=0.3,
                    start=5.0,
                    end=9.0,
                    payload_types=frozenset({"Reply", "Inquiry"}),
                ),
                PartitionFault(
                    start=1.0,
                    end=2.0,
                    group_a=frozenset({"a", "b"}),
                    group_b=frozenset({"c"}),
                    mode="defer",
                ),
                DelaySpikeFault(start=0.0, end=10.0, factor=2.0, extra=1.0),
                CrashFault(phase="WriteMsg", victim="sender", occurrence=2, pid="w"),
                name="kitchen-sink",
            ),
        ],
    )
    def test_dict_round_trip(self, plan):
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"faults": [{"kind": "gremlin"}]})

    def test_from_dict_rejects_a_misspelt_top_level_key(self):
        # ``fault`` for ``faults`` used to load as the *empty* plan: the
        # run went fault-free and reported "in-model, no violations".
        with pytest.raises(ConfigError, match="unknown key.*fault"):
            FaultPlan.from_dict(
                {"name": "x", "fault": [{"kind": "loss", "probability": 0.5}]}
            )

    @pytest.mark.parametrize(
        "faults",
        [{"kind": "loss", "probability": 0.5}, "loss", None, 3],
        ids=["dict", "str", "null", "int"],
    )
    def test_from_dict_rejects_a_non_list_faults(self, faults):
        with pytest.raises(ConfigError, match="must be a list"):
            FaultPlan.from_dict({"faults": faults})

    def test_from_dict_rejects_a_non_object_plan_or_entry(self):
        with pytest.raises(ConfigError, match="JSON object"):
            FaultPlan.from_dict([{"kind": "loss", "probability": 0.5}])
        with pytest.raises(ConfigError, match="JSON object"):
            FaultPlan.from_dict({"faults": ["loss"]})

    def test_from_dict_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict(
                {"faults": [{"kind": "loss", "probability": 0.5, "colour": "red"}]}
            )
