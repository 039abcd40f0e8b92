"""One delivery plane under faults.

A fault plan settles everything it can at transmission, so an installed
plan leaves the fire sites on their inlined dispatch unless it can act
when a delivery *fires* (a drop-mode partition, a crash).  Pinned here:

* which plans take the checked path (``Network._fast``), and that the
  checked path really is idle / really is taken;
* that the uniform draw parameters ``send_payload`` draws inline on
  exist only on a clean, untraced link (``trace=True`` ≡ ``trace=False``
  here compares ``DelayModel.sample`` against the inline draw, and a
  plan's spikes and deferrals always see a sampled delay);
* that recipients a defer partition parks on one instant — one queue
  tuple each since ``_BroadcastBatch`` went — still deliver in
  recipient / push order, ahead of anything else due at that instant.
"""

from dataclasses import dataclass

import pytest

from repro.core.history import operation_digest
from repro.faults import (
    CrashFault,
    DelaySpikeFault,
    FaultInjector,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.net.broadcast import BroadcastService
from repro.net.delay import SynchronousDelay
from repro.net.network import Network
from repro.sim.events import Priority
from repro.sim.process import SimProcess
from repro.sim.trace import TraceKind, TraceLog
from tests.conftest import make_system

DELTA = 5.0

TRANSMIT_ONLY = FaultPlan.of(
    LossFault(probability=0.2, payload_types={"Reply"}),
    PartitionFault(start=6.0, end=14.0, group_a={"p0002", "p0003"}, mode="defer"),
    DelaySpikeFault(start=5.0, end=20.0, factor=2.0),
    name="transmit-only",
)
DROP_PARTITION = FaultPlan.of(
    PartitionFault(start=6.0, end=14.0, group_a={"p0002", "p0003"}),
    name="drop-partition",
)
CRASH = FaultPlan.of(CrashFault(phase="WriteMsg", occurrence=3), name="crash")

PLANS = {
    "no-plan": (None, False),
    "empty": (FaultPlan(name="empty"), False),
    "transmit-only": (TRANSMIT_ONLY, False),
    "drop-partition": (DROP_PARTITION, True),
    "crash": (CRASH, True),
}


def drive(system):
    """A write, two overlapping joins, a read — every sync message type."""
    system.write("v1")
    joiners = [system.spawn_joiner(), system.spawn_joiner()]
    system.run_for(5 * DELTA)
    system.read(joiners[0])
    system.run_for(DELTA)
    return system


class TestPlaneSelection:
    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "plain"])
    @pytest.mark.parametrize("plan_key", sorted(PLANS))
    def test_fast_means_untraced_and_no_delivery_gate(self, plan_key, trace):
        plan, gates = PLANS[plan_key]
        network = make_system(trace=trace, faults=plan).network
        assert network._fast is (not trace and not gates)

    def test_an_installed_plan_withdraws_the_uniform_draws(self):
        clean = make_system(trace=False).network
        assert clean._p2p_uniform is not None and clean._bcast_uniform is not None
        gated = make_system(trace=False, faults=FaultPlan()).network
        assert gated._p2p_uniform is None and gated._bcast_uniform is None

    def test_tracing_withdraws_the_point_to_point_draw(self):
        # The sweep stays (its fires go through ``_fire_checked``); a
        # traced send samples the model — the reference the inline draw
        # is held to.
        traced = make_system(trace=True).network
        assert traced._p2p_uniform is None and traced._bcast_uniform is not None

    def test_a_traced_churn_run_records_every_send(self):
        """What no send may break, drawn inline or sampled: SEND records
        and ``sent_count`` agree, and tracing changes neither."""

        def churned(trace):
            system = make_system(n=12, seed=5, trace=trace)
            system.attach_churn(rate=0.1)
            system.write("v1")
            system.run_for(6 * DELTA)
            return system

        traced, plain = churned(True), churned(False)
        # Overlapping joins park each other's inquiries, so both reply
        # sites (the inquiry reply, the join-completion flush) were hit.
        assert traced.churn.joins_executed > 4
        sent = traced.network.sent_count
        assert sent == plain.network.sent_count > 50
        assert sum(r.kind is TraceKind.SEND for r in traced.trace) == sent

    def test_transmit_only_plan_never_takes_the_checked_path(self, monkeypatch):
        def refuse(self, sender, dest, payload, broadcast_id):
            raise AssertionError("a transmit-only plan took the checked path")

        monkeypatch.setattr(Network, "_fire_checked", refuse)
        system = drive(make_system(trace=False, faults=TRANSMIT_ONLY))
        counters = system.faults.counters()
        assert counters["deferred"] and counters["spiked"]
        assert system.network.delivered_count > 0

    @pytest.mark.parametrize("plan_key", ["drop-partition", "crash"])
    def test_delivery_gating_plan_takes_it_every_time(self, plan_key, monkeypatch):
        checked = []
        fire_checked = Network._fire_checked

        def counting(self, sender, dest, payload, broadcast_id):
            checked.append(dest)
            fire_checked(self, sender, dest, payload, broadcast_id)

        monkeypatch.setattr(Network, "_fire_checked", counting)
        system = drive(make_system(trace=False, faults=PLANS[plan_key][0]))
        network = system.network
        # Every fire is a checked fire: each lands as a delivery, a
        # departed-destination drop or a drop at the delivery gate.
        assert len(checked) >= network.delivered_count + network.dropped_count > 0
        counters = system.faults.counters()
        assert counters["partition_dropped"] or counters["crashes_fired"]


class TestNoWaveSendsAroundTheGate:
    """Sync is the only protocol that ever inlines a send (``on_inquiry``,
    the join-completion flush); under a plan both must go through
    ``send_payload`` and its gate."""

    def surface(self, plan, trace):
        system = drive(make_system(n=12, seed=5, trace=trace, faults=plan))
        network = system.network
        return {
            "counters": system.faults.counters(),
            "sent": network.sent_count,
            "delivered": network.delivered_count,
            "faulted": network.faulted_count,
            "digest": operation_digest(system.close()),
        }

    @pytest.mark.parametrize("probability", [0.3, 1.0])
    def test_reply_loss_is_the_same_with_tracing_off_and_on(self, probability):
        plan = FaultPlan.of(
            LossFault(probability=probability, payload_types={"Reply"})
        )
        waves = self.surface(plan, trace=False)
        handlers = self.surface(plan, trace=True)
        assert waves == handlers
        assert waves["counters"]["lost"] > 0

    def test_total_reply_loss_loses_every_send(self):
        # Every sync send is a Reply (the rest is broadcast): with the
        # handlers honouring the gate, none survives — including the
        # parked inquiries each joiner answers when its own join ends.
        plan = FaultPlan.of(LossFault(probability=1.0, payload_types={"Reply"}))
        waves = self.surface(plan, trace=False)
        assert waves["counters"]["lost"] == waves["sent"] == waves["faulted"] > 20

    def test_the_join_completion_flush_is_gated(self):
        system = make_system(
            trace=False,
            faults=FaultPlan.of(LossFault(probability=1.0, payload_types={"Reply"})),
        )
        first, second = system.spawn_joiner(), system.spawn_joiner()
        # Both joiners broadcast their inquiry at δ and are still
        # listening when the other's arrives, so each parks one.
        system.run_for(2 * DELTA + 0.1)
        nodes = [system.membership.process(pid) for pid in (first, second)]
        assert [len(node._reply_to) for node in nodes] == [1, 1]
        lost_before = system.faults.lost_count
        system.run_for(2 * DELTA)
        assert all(node.is_active for node in nodes)
        assert system.faults.lost_count == lost_before + 2


# ----------------------------------------------------------------------
# Ties: recipients a defer partition parks on one instant
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class News:
    item: str


class Listener(SimProcess):
    """Logs what it hears and, at the same instant, schedules an echo —
    which must not overtake a later tied recipient."""

    def __init__(self, pid, engine, log):
        super().__init__(pid, engine)
        self.log = log

    def on_news(self, sender, msg):
        self.log.append((self.engine.now, "hear", self.pid, msg.item))
        self.engine.schedule(
            0.0,
            self.log.append,
            (self.engine.now, "echo", self.pid, msg.item),
            priority=Priority.OPERATION,
        )


HEAL = 30.0
PEERS = ["p1", "p2", "p3", "p4", "p5"]


def parked_run(rng, membership, engine, trace_on, items):
    """``p0`` broadcasts ``items`` from behind a defer partition that
    heals at ``HEAL``, long after every natural arrival; a timer is due
    at the heal instant too.  Returns the event log from then on."""
    log: list[tuple] = []
    trace = TraceLog(enabled=trace_on)
    model = SynchronousDelay(delta=DELTA)
    network = Network(engine, membership, model, trace, rng)
    service = BroadcastService(engine, membership, network, model, trace, rng)
    for pid in ["p0"] + PEERS:
        membership.enter(Listener(pid, engine, log))
    plan = FaultPlan.of(
        PartitionFault(start=10.0, end=HEAL, group_a={"p0"}, mode="defer")
    )
    network.install_faults(FaultInjector(plan, rng.stream("test.faults")))
    assert network._fast is not trace_on
    # Scheduled first — the lowest sequence number at the heal instant —
    # and still behind every delivery: DELIVERY outranks TIMER.
    engine.schedule_at(
        HEAL, log.append, (HEAL, "timer", "", ""), priority=Priority.TIMER
    )
    for offset, item in enumerate(items):
        engine.schedule_at(12.0 + offset, service.broadcast, "p0", News(item))
    engine.run()
    assert network.faults.deferred_count == len(PEERS) * len(items)
    return [event for event in log if event[0] == HEAL]


class TestParkedRecipientsKeepTheirOrder:
    @pytest.mark.parametrize("trace_on", [False, True], ids=["waves", "handlers"])
    @pytest.mark.parametrize("items", [["a"], ["a", "b"]], ids=["one", "overlapping"])
    def test_recipient_then_push_order_ahead_of_everything_else(
        self, rng, membership, engine, trace_on, items
    ):
        at_heal = parked_run(rng, membership, engine, trace_on, items)
        expected = (
            [(HEAL, "hear", pid, item) for item in items for pid in PEERS]
            + [(HEAL, "timer", "", "")]
            + [(HEAL, "echo", pid, item) for item in items for pid in PEERS]
        )
        assert at_heal == expected
