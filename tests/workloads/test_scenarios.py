"""Unit tests for the scripted scenarios and the delay-rule engine."""

from repro.workloads.scenarios import (
    DelayRule,
    ScriptedDelays,
    figure_3a,
    figure_3b,
    new_old_inversion,
)


class TestScriptedDelays:
    def test_first_match_wins(self):
        policy = ScriptedDelays(
            [
                DelayRule(payload_type="A", delay=1.0),
                DelayRule(payload_type="A", sender="x", delay=2.0),
            ],
            default=9.0,
        )

        class A:
            pass

        assert policy("x", "y", A(), 0.0) == 1.0  # first rule shadows second

    def test_fields_must_all_match(self):
        policy = ScriptedDelays(
            [DelayRule(payload_type="A", sender="s", dest="d", delay=3.0)],
            default=9.0,
        )

        class A:
            pass

        class B:
            pass

        assert policy("s", "d", A(), 0.0) == 3.0
        assert policy("s", "other", A(), 0.0) == 9.0
        assert policy("other", "d", A(), 0.0) == 9.0
        assert policy("s", "d", B(), 0.0) == 9.0

    def test_wildcards(self):
        policy = ScriptedDelays([DelayRule(delay=4.0)], default=9.0)
        assert policy("anyone", "anywhere", object(), 0.0) == 4.0


class TestScenarioReports:
    def test_figure_3a_narrative_and_handles(self):
        scenario = figure_3a()
        assert scenario.handles.keys() == {"write", "join", "read"}
        text = scenario.describe()
        assert "VIOLATED" in text
        assert "join" in text or "Join" in text

    def test_figure_3b_narrative(self):
        scenario = figure_3b()
        assert "SAFE" in scenario.describe()

    def test_inversion_scenario_handles(self):
        scenario = new_old_inversion()
        assert scenario.handles["read_new"].result == "v1"
        assert scenario.handles["read_old"].result == "v0"
        assert scenario.atomicity.is_regular_but_not_atomic

    def test_inversion_pair_identity(self):
        scenario = new_old_inversion()
        inversion = scenario.atomicity.inversions[0]
        # The witnesses are views of the rows: the same reads by op id
        # and fields, not by identity.
        for view, handle in (
            (inversion.earlier, scenario.handles["read_new"]),
            (inversion.later, scenario.handles["read_old"]),
        ):
            assert (view.op_id, view.process_id, view.invoke_time,
                    view.response_time, view.result) == (
                handle.op_id, handle.process_id, handle.invoke_time,
                handle.response_time, handle.result)

    def test_write_timing_matches_figure(self):
        scenario = figure_3a()
        write = scenario.handles["write"]
        assert write.invoke_time == 10.0
        assert write.response_time == 15.0  # exactly δ later

    def test_scenarios_close_their_histories(self):
        for factory in (figure_3a, figure_3b, new_old_inversion):
            scenario = factory()
            assert scenario.system.history.horizon is not None
