"""One point-to-point plane: ``send_payload`` is the network's only
send, and the broadcast service's entrant offers are the same queue
tuples as every other single-destination delivery.

The envelope-returning ``Network.send`` and its ``Message`` are deleted;
one short cell of every protocol plus a live migration — with tracing on
(every delivery through ``_fire_checked``) and off (the fire sites
dispatch inline, ``send_payload`` draws inline) — proves nothing under
``src/repro`` still reaches for them.
"""

from dataclasses import dataclass

import pytest

import repro.net
from repro.cluster import ClusterConfig, ClusterSystem
from repro.faults import FaultInjector, FaultPlan, LossFault
from repro.net.broadcast import BroadcastService
from repro.net.delay import SynchronousDelay
from repro.net.network import Network
from repro.sim.process import SimProcess
from repro.sim.trace import TraceKind
from tests.conftest import make_system, pending_entries

DELTA = 5.0


def test_the_envelope_api_is_gone():
    assert not hasattr(Network, "send")
    assert not hasattr(SimProcess, "deliver")
    assert not hasattr(repro.net, "Message")


@pytest.mark.parametrize("trace", [True, False], ids=["handlers", "waves"])
class TestNoCallerOfSend:
    @pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
    def test_protocol_cell(self, protocol, trace):
        system = make_system(protocol=protocol, n=11, trace=trace)
        joiner = system.spawn_joiner()
        write = system.write("v1")
        system.run_for(6 * DELTA)
        read = system.read(joiner)
        system.run_for(6 * DELTA)
        assert write.done and read.done and read.result == "v1"
        assert system.network.delivered_count > 0

    def test_migration_cell(self, trace):
        cluster = ClusterSystem(
            ClusterConfig(shards=3, keys=6, n=18, delta=DELTA, seed=7, trace=trace)
        )
        key = cluster.keys[0]
        dest = (cluster.shard_of(key) + 1) % 3
        record = cluster.schedule_migration(key, dest, at=20.0)
        cluster.write("before", key=key)
        cluster.run_until(60.0)
        assert record.committed


@dataclass(frozen=True)
class News:
    item: str


class Listener(SimProcess):
    def __init__(self, pid, engine):
        super().__init__(pid, engine)
        self.heard: list[str] = []

    def on_news(self, sender, msg):
        self.heard.append(msg.item)


class TestEntrantOffers:
    """An offer to an entrant is scheduled by the broadcast service, not
    sent: no ``sent_count``, no SEND record — but it passes the fault
    gate and lands as a DELIVER carrying its broadcast's id."""

    def _offer(self, engine, membership, trace, rng, plan=None):
        model = SynchronousDelay(delta=DELTA)
        network = Network(engine, membership, model, trace, rng)
        service = BroadcastService(
            engine, membership, network, model, trace, rng,
            window=DELTA, entrant_policy="all",
        )
        for pid in ("p0", "p1", "p2"):
            membership.enter(Listener(pid, engine))
        if plan is not None:
            network.install_faults(FaultInjector(plan, rng.stream("test.faults")))
        broadcast_id = service.broadcast("p0", News("x"))
        engine.run_until(1.0)
        late = Listener("late", engine)
        membership.enter(late)
        assert service.offer_to_entrant(late) == 1
        return network, late, broadcast_id

    def test_offer_traces_as_deliver_with_its_broadcast_id(
        self, engine, membership, trace, rng
    ):
        network, late, broadcast_id = self._offer(engine, membership, trace, rng)
        sent_before = network.sent_count
        # The pending offer *is* its queue entry: no object of its own.
        # The fan-out's arrivals are the same kind of entry; the offer is
        # the one addressed to the entrant.
        (offer,) = [
            entry for entry in pending_entries(engine) if entry[4] == "late"
        ]
        assert offer[3] is network._delivery
        assert offer[4:] == ("late", "p0", News("x"), broadcast_id)
        engine.run()
        assert late.heard == ["x"]
        assert network.sent_count == sent_before == 0
        assert not [r for r in trace if r.kind is TraceKind.SEND]
        assert not [r for r in trace if r.kind is TraceKind.RECEIVE and r.process == "late"]
        (record,) = [r for r in trace if r.kind is TraceKind.DELIVER and r.process == "late"]
        assert record.details == {"sender": "p0", "type": "News"}
        # The offer shares the fan-out's id: one BROADCAST record, and
        # the entrant's delivery is one of its four DELIVERs.
        (announce,) = [r for r in trace if r.kind is TraceKind.BROADCAST]
        assert announce.details["broadcast_id"] == broadcast_id
        assert sum(r.kind is TraceKind.DELIVER for r in trace) == 4

    def test_offer_passes_the_fault_gate(self, engine, membership, trace, rng):
        plan = FaultPlan.of(LossFault(probability=1.0, dest="late"))
        network, late, _ = self._offer(engine, membership, trace, rng, plan)
        engine.run()
        assert late.heard == []
        assert network.faults.lost_count == 1
        assert network.faulted_count == 1
        (drop,) = [r for r in trace if r.kind is TraceKind.DROP]
        assert drop.process == "late" and drop.details["reason"] == "loss"
