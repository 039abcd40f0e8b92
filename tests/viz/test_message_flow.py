"""Tests for the message-flow listing."""

from repro.faults import FaultPlan, LossFault
from repro.sim.trace import TraceLog
from repro.viz.message_flow import render_message_flow
from repro.workloads.scenarios import figure_3a
from tests.conftest import make_system


class TestMessageFlow:
    def test_lists_broadcasts_and_sends(self):
        system = make_system(n=3)
        system.write("v1")
        system.run_until(20.0)
        system.spawn_joiner()
        system.run_until(40.0)
        text = render_message_flow(system.trace)
        assert "==WriteMsg==> *" in text
        assert "==Inquiry==> *" in text
        assert "--Reply-->" in text

    def test_figure_3a_shows_the_dropped_inquiry(self):
        scenario = figure_3a()
        text = render_message_flow(scenario.system.trace)
        assert "DROPPED" in text
        assert "--Inquiry--x p0001" in text

    def test_payload_filter(self):
        system = make_system(n=3)
        system.write("v1")
        system.run_until(20.0)
        text = render_message_flow(system.trace, payload_types={"WriteMsg"})
        assert "WriteMsg" in text
        assert "Inquiry" not in text

    def test_process_filter(self):
        scenario = figure_3a()
        text = render_message_flow(scenario.system.trace, processes={"p0004"})
        for line in text.splitlines():
            assert "p0004" in line

    def test_time_window(self):
        scenario = figure_3a()
        text = render_message_flow(scenario.system.trace, start=10.4, end=12.0)
        assert "WriteMsg==> *" not in text  # broadcast was at t=10.0

    def test_limit_truncates(self):
        system = make_system(n=10)
        system.spawn_joiner()  # the inquiry draws replies from all seeds
        system.run_until(20.0)
        text = render_message_flow(system.trace, limit=2)
        assert "(truncated)" in text
        assert len(text.splitlines()) == 3

    def test_empty_result_message(self):
        system = make_system(n=3)
        system.run_until(5.0)
        text = render_message_flow(system.trace, payload_types={"Nothing"})
        assert text == "(no matching message events)"

    def test_empty_trace(self):
        assert render_message_flow(TraceLog()) == "(no matching message events)"

    def test_departed_drop_names_its_cause(self):
        scenario = figure_3a()
        text = render_message_flow(scenario.system.trace)
        assert "DROPPED (receiver left)" in text

    def test_fault_drop_names_its_reason(self):
        plan = FaultPlan.of(LossFault(probability=1.0, payload_types={"WriteMsg"}))
        system = make_system(n=3, faults=plan)
        system.write("v1")
        system.run_until(20.0)
        text = render_message_flow(system.trace)
        assert "DROPPED (fault: loss)" in text

    def test_single_record_trace(self):
        system = make_system(n=2)
        system.network.send_payload("p0001", "p0002", "x")
        text = render_message_flow(system.trace)
        assert len(text.splitlines()) == 1
        assert "p0001" in text and "p0002" in text
