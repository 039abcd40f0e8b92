"""One handler body per payload type, reached from every fire site.

``on_<type>`` is the only implementation of a payload type.  With
tracing off and no delivery-gating plan the network's two fire sites
(``_Delivery.fire``, ``_FanoutSweep.fire``) inline ``deliver_payload`` —
the per-class ``_dispatch`` probe, the handler call, the watcher poll —
and with tracing on ``_fire_checked`` ends in ``deliver_payload``
itself.  Pinned here, through a real ``Network``: both sites honour a
subclass's override, resolve and cache a payload type on first
delivery, name an unknown one, and resume a satisfied ``WaitUntil`` in
the same fire — identically on the checked path.  A point-to-point
delivery is its queue entry (dest, sender, payload and ``broadcast_id``
ride the tuple; the item is the network's one ``_Delivery``), and the
scheduler hands every slab item the entry it popped.
"""

from dataclasses import dataclass

import pytest

from repro.net.broadcast import BroadcastService
from repro.net.delay import SynchronousDelay
from repro.net.network import Network, _FanoutSweep
from repro.sim.engine import EventScheduler
from repro.sim.errors import ProcessError
from repro.sim.events import Priority, SlabEntry
from repro.sim.operations import WaitUntil
from repro.sim.process import SimProcess
from repro.sim.trace import TraceLog
from tests.conftest import pending_entries

DELTA = 5.0


@dataclass(frozen=True)
class Ping:
    tag: str


@dataclass(frozen=True)
class Mystery:
    pass


def node_classes():
    """A fresh ``(Node, Override)`` pair: the dispatch caches live on
    the classes, so each test gets its own."""

    class Node(SimProcess):
        def __init__(self, pid, engine):
            super().__init__(pid, engine)
            self.log = []

        def on_ping(self, sender, payload):
            self.log.append(("base", sender, payload.tag))

        def wait_for(self, count):
            yield WaitUntil(lambda: len(self.log) >= count)
            return self.engine.now

    class Override(Node):
        def on_ping(self, sender, payload):
            self.log.append(("override", sender, payload.tag))

    return Node, Override


class World:
    def __init__(self, engine, membership, rng, trace_on=False):
        model = SynchronousDelay(delta=DELTA)
        trace = TraceLog(enabled=trace_on)
        self.engine, self.membership = engine, membership
        self.network = Network(engine, membership, model, trace, rng)
        self.service = BroadcastService(
            engine, membership, self.network, model, trace, rng
        )

    def enter(self, cls, *pids):
        nodes = [cls(pid, self.engine) for pid in pids]
        for node in nodes:
            self.membership.enter(node)
        return nodes

    def pending(self):
        """What is queued: each point-to-point delivery as the
        ``(dest, sender, payload, broadcast_id)`` its entry carries,
        each sweep as the destinations it has yet to reach."""
        deliveries, sweeps = [], []
        for entry in pending_entries(self.engine):
            item = entry[3]
            if item is self.network._delivery:
                deliveries.append(entry[4:])
            else:
                assert type(item) is _FanoutSweep and len(entry) == 4
                sweeps.append(sorted(item.dests[item.index:]))
        return deliveries, sweeps


@pytest.fixture
def world(engine, membership, rng):
    return World(engine, membership, rng)


@pytest.fixture
def inline_only(monkeypatch):
    """The fast arms dispatch inline: neither the checked wrapper nor
    the ``deliver_payload`` frame may run."""

    def refuse(*args, **kwargs):
        raise AssertionError("a fast-arm fire left the inlined dispatch")

    monkeypatch.setattr(Network, "_fire_checked", refuse)
    monkeypatch.setattr(SimProcess, "deliver_payload", refuse)


@pytest.mark.usefixtures("inline_only")
class TestFastArms:
    def test_an_override_runs_on_both_fire_sites(self, world):
        Node, Override = node_classes()
        (base,) = world.enter(Node, "a")
        (loud,) = world.enter(Override, "o")
        world.network.send_payload("a", "o", Ping("p2p"))
        world.service.broadcast("a", Ping("bcast"))
        assert world.pending() == (
            [("o", "a", Ping("p2p"), None)], [["a", "o"]]
        )
        world.engine.run()
        assert sorted(loud.log) == [
            ("override", "a", "bcast"), ("override", "a", "p2p")
        ]
        assert base.log == [("base", "a", "bcast")]
        # Each class resolved its own handler; the parent's cache never
        # saw (and never served) the override.
        assert Override.__dict__["_dispatch_cache"] == {Ping: Override.on_ping}
        assert Node.__dict__["_dispatch_cache"] == {Ping: Node.on_ping}

    @pytest.mark.parametrize("site", ["unicast", "sweep"])
    def test_first_delivery_resolves_and_caches(self, world, site):
        Node, _ = node_classes()
        a, b = world.enter(Node, "a", "b")
        assert b._dispatch == {}
        for tag in ("one", "two"):
            if site == "unicast":
                world.network.send_payload("a", "b", Ping(tag))
            else:
                world.service.broadcast("a", Ping(tag))
            world.engine.run()
        assert b._dispatch == {Ping: Node.on_ping}
        assert a._dispatch is b._dispatch  # one cache per class
        assert [tag for _, _, tag in b.log] == ["one", "two"]

    def test_unknown_payload_is_named_and_the_fan_out_stays_queued(self, world):
        Node, _ = node_classes()
        world.enter(Node, "a", "b", "c")
        world.service.broadcast("a", Mystery())
        with pytest.raises(ProcessError, match="Node has no handler 'on_mystery'"):
            world.engine.run()
        # One arrival fired (and raised); the sweep had already re-armed
        # for the other two.
        deliveries, (remaining,) = world.pending()
        assert deliveries == [] and len(remaining) == 2
        assert world.network.delivered_count == 1
        with pytest.raises(ProcessError, match="on_mystery"):
            world.engine.run()
        assert world.network.delivered_count == 2

    def test_unknown_payload_is_named_on_a_unicast(self, world):
        Node, _ = node_classes()
        world.enter(Node, "a", "b")
        world.network.send_payload("a", "b", Mystery())
        with pytest.raises(ProcessError, match="Node has no handler 'on_mystery'"):
            world.engine.run()


@pytest.mark.parametrize("trace_on", [False, True], ids=["inline", "checked"])
@pytest.mark.parametrize("site", ["unicast", "sweep"])
class TestWatchersResumeInTheSameFire:
    """The poll after the handler: one watcher takes the shortcut, two
    take the snapshot arm (each ``poll`` removes itself from the list
    being walked) — and ``deliver_payload`` polls the same way."""

    def fire(self, engine, membership, rng, trace_on, site, waits):
        world = World(engine, membership, rng, trace_on)
        assert world.network._fast is not trace_on
        Node, _ = node_classes()
        _, node = world.enter(Node, "a", "b")
        handles = [node.run_operation("wait", node.wait_for(n)) for n in waits]
        assert len(node._watchers) == len(waits)
        if site == "unicast":
            arrival = world.network.send_payload("a", "b", Ping("x"))
        else:
            world.service.broadcast("a", Ping("x"))
            sweep = pending_entries(world.engine)[0][3]
            arrival = sweep.times[list(sweep.dests).index("b")]
        world.engine.run()
        return node, handles, arrival

    def test_one_watcher(self, engine, membership, rng, trace_on, site):
        node, (handle,), arrival = self.fire(
            engine, membership, rng, trace_on, site, waits=[1]
        )
        assert handle.done and handle.result == arrival
        assert node._watchers == []

    def test_two_watchers_both_satisfied(
        self, engine, membership, rng, trace_on, site
    ):
        node, handles, arrival = self.fire(
            engine, membership, rng, trace_on, site, waits=[1, 1]
        )
        assert [h.result for h in handles] == [arrival, arrival]
        assert node._watchers == []

    def test_two_watchers_one_still_waiting(
        self, engine, membership, rng, trace_on, site
    ):
        node, (first, second), arrival = self.fire(
            engine, membership, rng, trace_on, site, waits=[1, 2]
        )
        assert first.done and first.result == arrival
        assert second.pending and len(node._watchers) == 1


class _Recorder(SlabEntry):
    __slots__ = ("seen",)

    def __init__(self):
        self.seen = []

    def fire(self, entry):
        self.seen.append(entry)


@pytest.mark.parametrize("drive", ["drain", "step"])
def test_a_slab_item_is_fired_with_its_own_queue_entry(drive):
    """One item, two pushes with different tails: ``_drain`` and
    ``step()`` both hand ``fire`` the entry just popped, whole."""
    engine = EventScheduler()
    item = _Recorder()
    engine.schedule_slab(2.0, Priority.DELIVERY, item, "late", 2)
    engine.schedule_slab(1.0, Priority.DELIVERY, item)
    assert engine.pending_count == 2
    if drive == "drain":
        assert engine.run() == 2
    else:
        assert engine.step() and engine.step() and not engine.step()
    assert item.seen == [
        (1.0, Priority.DELIVERY, 1, item),
        (2.0, Priority.DELIVERY, 0, item, "late", 2),
    ]
    assert engine.pending_count == 0 and engine.fired_count == 2
