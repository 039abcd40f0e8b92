"""Unit tests for the fault injector, standalone and inside full runs."""

from dataclasses import dataclass

import pytest

from repro.faults import (
    CrashFault,
    DelaySpikeFault,
    FaultInjector,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.net.delay import SynchronousDelay
from repro.net.network import Network
from repro.sim.errors import ConfigError, NetworkError
from repro.sim.process import SimProcess
from repro.sim.trace import TraceKind
from tests.conftest import make_system

DELTA = 5.0


@dataclass(frozen=True)
class Note:
    text: str


class Sink(SimProcess):
    def __init__(self, pid, engine):
        super().__init__(pid, engine)
        self.received: list[str] = []

    def on_note(self, sender, msg):
        self.received.append(msg.text)


def bare_network(engine, membership, trace, rng, plan):
    """A three-sink network with ``plan`` installed (no protocols)."""
    network = Network(engine, membership, SynchronousDelay(delta=DELTA), trace, rng)
    for pid in ("a", "b", "c"):
        membership.enter(Sink(pid, engine))
    network.install_faults(FaultInjector(plan, rng.stream("test.faults")))
    return network


class TestInstallation:
    def test_config_installs_a_plan(self):
        plan = FaultPlan.of(LossFault(probability=0.5), name="p")
        system = make_system(faults=plan)
        assert system.faults is not None
        assert system.faults.plan is plan
        assert system.network.faults is system.faults

    def test_one_injector_per_run(self):
        system = make_system(faults=FaultPlan())
        with pytest.raises(ConfigError):
            system.install_faults(FaultPlan())

    def test_network_rejects_second_injector(self):
        system = make_system(faults=FaultPlan())
        with pytest.raises(NetworkError):
            system.network.install_faults(system.faults)


class TestLoss:
    def test_total_loss_silences_point_to_point(self):
        plan = FaultPlan.of(LossFault(probability=1.0, payload_types={"Reply"}))
        system = make_system(faults=plan)
        system.spawn_joiner()  # inquiry fan-out triggers replies
        system.run_for(4 * DELTA)
        assert system.faults.lost_count > 0
        assert system.network.faulted_count == system.faults.lost_count
        # Departed-destination accounting is untouched by fault drops.
        assert system.network.dropped_count == 0

    def test_lost_messages_are_traced_with_reason(self):
        plan = FaultPlan.of(LossFault(probability=1.0, payload_types={"Reply"}))
        system = make_system(faults=plan)
        system.spawn_joiner()
        system.run_for(4 * DELTA)
        drops = system.trace.filter(TraceKind.DROP)
        assert drops and all(r.details["reason"] == "loss" for r in drops)

    def test_loss_applies_to_broadcast_deliveries_too(self):
        plan = FaultPlan.of(LossFault(probability=1.0, payload_types={"WriteMsg"}))
        system = make_system(faults=plan)
        system.write("v1")
        system.run_for(3 * DELTA)
        # Every fan-out instance of the dissemination was swallowed.
        assert system.faults.lost_count == 10


class TestPartition:
    def test_drop_partition_severs_both_directions(
        self, engine, membership, trace, rng
    ):
        plan = FaultPlan.of(
            PartitionFault(start=0.0, end=100.0, group_a=frozenset({"a"}), mode="drop")
        )
        net = bare_network(engine, membership, trace, rng, plan)
        net.send_payload("a", "b", Note("x"))
        net.send_payload("b", "a", Note("y"))
        net.send_payload("b", "c", Note("z"))  # same side: unaffected
        engine.run()
        assert net.faults.partition_dropped_count == 2
        assert net.faulted_count == 2
        assert membership.process("c").received == ["z"]

    def test_in_flight_message_hits_partition_at_arrival(
        self, engine, membership, trace, rng
    ):
        # Partition starts after the send but before the delivery: the
        # message is swallowed at the delivery instant.
        plan = FaultPlan.of(
            PartitionFault(start=0.2, end=50.0, group_a=frozenset({"b"}), mode="drop")
        )
        net = bare_network(engine, membership, trace, rng, plan)
        assert net.send_payload("a", "b", Note("x")) > 0.2
        engine.run()
        assert net.faults.partition_dropped_count == 1
        assert membership.process("b").received == []

    def test_defer_partition_delays_until_heal_never_loses(
        self, engine, membership, trace, rng
    ):
        heal = 12.0
        plan = FaultPlan.of(
            PartitionFault(start=0.0, end=heal, group_a=frozenset({"b"}), mode="defer")
        )
        net = bare_network(engine, membership, trace, rng, plan)
        assert net.send_payload("a", "b", Note("x")) == heal
        engine.run()
        assert net.faults.deferred_count == 1
        assert net.faulted_count == 0
        assert membership.process("b").received == ["x"]

    def test_short_defer_partition_respects_the_sync_bound(
        self, engine, membership, trace, rng
    ):
        # The in-model claim: a defer partition no longer than delta
        # keeps every crossing delay within delta of the send.
        plan = FaultPlan.of(
            PartitionFault(
                start=0.0, end=0.8 * DELTA, group_a=frozenset({"b"}), mode="defer"
            )
        )
        net = bare_network(engine, membership, trace, rng, plan)
        for _ in range(20):
            assert net.send_payload("a", "b", Note("x")) - engine.now <= DELTA

    def test_healed_partition_lets_traffic_flow(self, engine, membership, trace, rng):
        plan = FaultPlan.of(
            PartitionFault(start=0.0, end=1.0, group_a=frozenset({"b"}), mode="drop")
        )
        net = bare_network(engine, membership, trace, rng, plan)
        engine.run_until(2.0)
        net.send_payload("a", "b", Note("x"))
        engine.run()
        assert net.faults.partition_dropped_count == 0
        assert membership.process("b").received == ["x"]


class TestSpike:
    def test_spike_inflates_delay_inside_window(self):
        plan = FaultPlan.of(DelaySpikeFault(start=0.0, end=100.0, extra=7.0))
        system = make_system(faults=plan)
        arrives = system.network.send_payload("p0001", "p0002", "x")
        assert arrives - system.now > 7.0
        assert system.faults.spiked_count == 1

    def test_spike_window_is_exclusive_at_end(self):
        plan = FaultPlan.of(DelaySpikeFault(start=50.0, end=60.0, extra=7.0))
        system = make_system(faults=plan)
        arrives = system.network.send_payload("p0001", "p0002", "x")
        assert arrives - system.now <= DELTA
        assert system.faults.spiked_count == 0


class TestCrash:
    def test_crash_fires_at_the_kth_phase_delivery(self):
        plan = FaultPlan.of(
            CrashFault(phase="WriteMsg", victim="sender", occurrence=2)
        )
        system = make_system(faults=plan)
        system.write("v1")
        system.run_for(3 * DELTA)
        # The writer departed the instant its dissemination's second
        # delivery fired; the write itself was abandoned mid-flight.
        assert not system.membership.is_present(system.writer_pid)
        assert system.faults.crashes_fired == 1
        assert system.history.departed_at(system.writer_pid) is not None

    def test_crash_of_dest_drops_the_triggering_message(self):
        plan = FaultPlan.of(
            CrashFault(phase="WriteMsg", victim="dest", pid="p0003")
        )
        system = make_system(faults=plan)
        system.write("v1")
        system.run_for(3 * DELTA)
        assert not system.membership.is_present("p0003")
        # The delivery that pulled the trigger was then dropped at the
        # presence gate, i.e. as a departed-destination drop.
        assert system.network.dropped_count >= 1

    def test_undelivered_messages_do_not_count_toward_occurrence(
        self, engine, membership, trace, rng
    ):
        # The first two Notes to "b" never land (drop partition), so a
        # crash at the 2nd delivered Note must wait for two messages
        # that actually get through.
        crashed = []
        plan = FaultPlan.of(
            PartitionFault(start=0.0, end=10.0, group_a=frozenset({"b"}), mode="drop"),
            CrashFault(phase="Note", victim="dest", pid="b", occurrence=2),
        )
        net = bare_network(engine, membership, trace, rng, plan)
        net.faults.crash_hook = crashed.append
        net.send_payload("a", "b", Note("eaten-1"))
        net.send_payload("a", "b", Note("eaten-2"))
        engine.run_until(20.0)  # partition healed, nothing delivered yet
        assert net.faults.partition_dropped_count == 2
        assert crashed == []
        net.send_payload("a", "b", Note("lands-1"))
        engine.run_until(30.0)
        assert crashed == []  # only ONE deliverable message so far
        net.send_payload("a", "b", Note("lands-2"))
        engine.run_until(40.0)
        assert crashed == ["b"]

    def test_delivery_to_departed_dest_does_not_count_toward_occurrence(
        self, engine, membership, trace, rng
    ):
        plan = FaultPlan.of(
            CrashFault(phase="Note", victim="sender", pid="a", occurrence=2)
        )
        net = bare_network(engine, membership, trace, rng, plan)
        crashed = []
        net.faults.crash_hook = crashed.append
        net.send_payload("a", "b", Note("never-lands"))
        membership.process("b").depart()
        membership.leave("b", 0.0)
        engine.run()
        assert net.dropped_count == 1
        net.send_payload("a", "c", Note("lands-1"))
        engine.run()
        assert crashed == []  # the departed-dest drop did not count
        net.send_payload("a", "c", Note("lands-2"))
        engine.run()
        assert crashed == ["a"]

    def test_crash_fires_at_most_once(self):
        plan = FaultPlan.of(
            CrashFault(phase="WriteMsg", victim="dest", pid="p0003")
        )
        system = make_system(faults=plan)
        system.write("v1")
        system.run_for(3 * DELTA)
        system.write("v2")
        system.run_for(3 * DELTA)
        assert system.faults.crashes_fired == 1


class TestAccounting:
    def test_counters_snapshot(self):
        plan = FaultPlan.of(LossFault(probability=1.0, payload_types={"WriteMsg"}))
        system = make_system(faults=plan)
        system.write("v1")
        system.run_for(3 * DELTA)
        counters = system.faults.counters()
        assert counters["lost"] == 10
        assert counters["partition_dropped"] == 0

    def test_network_repr_reports_both_drop_kinds(self):
        plan = FaultPlan.of(LossFault(probability=1.0, payload_types={"WriteMsg"}))
        system = make_system(faults=plan)
        system.write("v1")
        system.run_for(3 * DELTA)
        rendered = repr(system.network)
        assert "faulted=10" in rendered
        assert "dropped=0" in rendered
