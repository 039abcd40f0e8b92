"""A send is a reply or a round — and each has a fast and a slow path.

* **A reply is the handler's return value.**  The two fire sites queue
  it inline on a clean link; tracing, a fault plan or the checked path
  send it through ``send_payload`` — at the position the handler's own
  send had: after the handler, before the delivery's watcher poll.
* **A round is one call.**  ``send_round`` is the per-destination
  ``send_payload`` loop: same queue entries, sequence numbers, counters,
  draws and errors, inline on a clean link and literally that loop off
  one.

``send_payload`` stays the one slow path: with tracing on or a fault
plan installed every message of a run passes through it, and on a clean
link none does.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSystem
from repro.cluster.history import cluster_digest
from repro.core.history import operation_digest
from repro.core.register import RegisterNode
from repro.faults import FaultInjector, FaultPlan, LossFault
from repro.net.delay import SynchronousDelay
from repro.net.network import Network
from repro.protocols import abd, common, es_reg, sync_reg
from repro.sim.engine import EventScheduler
from repro.sim.errors import NetworkError
from repro.sim.membership import Membership
from repro.sim.operations import WaitUntil
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from tests.conftest import make_system, pending_entries

DELTA = 5.0
PIDS = tuple(f"p{i}" for i in range(6))


class Note(NamedTuple):
    text: str


class Sink(SimProcess):
    def on_note(self, sender, msg):
        return None


def _network(mode: str, process=Sink, lossy: bool = True):
    """A six-process network: ``clean`` (inline draws, inline dispatch),
    ``traced`` or ``faulted`` (both withdraw ``_p2p_uniform``; the plan
    loses three messages in ten, or with ``lossy`` off none)."""
    engine = EventScheduler(start=2.0)
    membership = Membership()
    rng = RngRegistry(seed=5)
    trace = TraceLog(enabled=mode == "traced")
    network = Network(engine, membership, SynchronousDelay(delta=DELTA), trace, rng)
    for pid in PIDS:
        membership.enter(process(pid, engine))
    if mode == "faulted":
        only = None if lossy else {"NoSuchPayload"}
        plan = FaultPlan.of(LossFault(probability=0.3, payload_types=only))
        network.install_faults(FaultInjector(plan, rng.stream("test.faults")))
    assert (network._p2p_uniform is not None) == (mode == "clean")
    return network


def _queued(network: Network) -> list[tuple]:
    """The pending entries without their item (each network's own)."""
    return [entry[:3] + entry[4:] for entry in pending_entries(network.engine)]


def _state(network: Network) -> dict[str, Any]:
    engine = network.engine
    return {
        "queued": _queued(network),
        "sequence": engine._sequence,
        "live": engine._live,
        "sent": network.sent_count,
        "faulted": network.faulted_count,
        "rng": network._rng.getstate(),
        "trace": [(r.time, r.kind, r.process, r.details) for r in network.trace],
    }


def _attempt(call) -> str | None:
    try:
        call()
    except NetworkError as error:
        return f"{type(error).__name__}: {error}"
    return None


class TestARoundIsTheLoop:
    @given(
        mode=st.sampled_from(["clean", "traced", "faulted"]),
        dests=st.lists(st.sampled_from(PIDS), max_size=12),
        ghost_at=st.none() | st.integers(min_value=0, max_value=12),
        sender_present=st.booleans(),
        already_queued=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_send_round_is_the_per_destination_loop(
        self, mode, dests, ghost_at, sender_present, already_queued
    ):
        if ghost_at is not None:
            dests.insert(min(ghost_at, len(dests)), "ghost")  # never entered
        payload = Note("round")
        twins = [_network(mode), _network(mode)]
        for network in twins:
            for _ in range(already_queued):
                network.send_payload("p1", "p2", Note("earlier"))
            if not sender_present:
                network.membership.leave("p0", network.engine.now)
        round_, loop = twins

        def per_destination():
            for dest in dests:
                loop.send_payload("p0", dest, payload)

        failures = [
            _attempt(lambda: round_.send_round("p0", dests, payload)),
            _attempt(per_destination),
        ]
        assert failures[0] == failures[1]
        if dests:
            assert (failures[0] is not None) == (
                not sender_present or ghost_at is not None
            )
        assert _state(round_) == _state(loop)

    def test_a_round_accepts_any_sequence_of_destinations(self):
        network = _network("clean")
        network.send_round("p0", tuple(PIDS[1:]), Note("x"))
        assert network.sent_count == network.engine.pending_count == 5
        assert sorted(entry[3] for entry in _queued(network)) == list(PIDS[1:])

    def test_off_a_clean_link_a_round_is_send_payload(self, monkeypatch):
        calls = _count_send_payload(monkeypatch)
        for mode, expected in (("clean", 0), ("traced", 4), ("faulted", 4)):
            del calls[:]
            _network(mode).send_round("p0", PIDS[1:5], Note("x"))
            assert len(calls) == expected, mode


def _count_send_payload(monkeypatch) -> list[tuple]:
    """Spy on ``Network.send_payload`` (the class attribute, so the fire
    sites' and ``deliver_payload``'s calls are seen too)."""
    calls: list[tuple] = []
    plain = Network.send_payload

    def counted(self, sender, dest, payload):
        calls.append((sender, dest, type(payload).__name__))
        return plain(self, sender, dest, payload)

    monkeypatch.setattr(Network, "send_payload", counted)
    return calls


# ----------------------------------------------------------------------
# (b) The reply is queued before the watcher poll
# ----------------------------------------------------------------------


class Ping(NamedTuple):
    pass


class Pong(NamedTuple):
    pass


class After(NamedTuple):
    pass


class _Waiter(SimProcess):
    """Answers a Ping with a Pong; the Ping also completes a pending
    ``WaitUntil`` whose continuation sends an After.  Both messages are
    scheduled inside one delivery: the Pong (the handler's answer) must
    take the earlier sequence number, as an in-handler send would."""

    network: Network

    def __init__(self, pid, engine):
        super().__init__(pid, engine)
        self.pinged = False
        self.heard: list[str] = []

    def wait_for_ping(self):
        def body():
            yield WaitUntil(lambda: self.pinged)
            self.network.send_payload(self.pid, "p2", After())

        self.run_operation("wait", body())

    def on_pong(self, sender, msg):
        self.heard.append("pong")

    def on_after(self, sender, msg):
        self.heard.append("after")


class Returns(_Waiter):
    def on_ping(self, sender, msg):
        self.pinged = True
        return Pong()


class SendsItself(_Waiter):
    """The reference: the explicit in-handler send a ``return`` replaced."""

    def on_ping(self, sender, msg):
        self.pinged = True
        self.network.send_payload(self.pid, sender, Pong())


def _ping(process: type, mode: str, site: str) -> list[tuple]:
    """Deliver one Ping from p0 to p1 through fire site ``site``; what
    that delivery scheduled, as ``(sequence, dest, sender, type)``."""
    network = _network(mode, process, lossy=False)
    for pid in PIDS:
        network.membership.process(pid).network = network
    network.membership.process("p1").wait_for_ping()
    engine = network.engine
    if site == "delivery":
        network.send_payload("p0", "p1", Ping())
    else:
        network.deliver_fanout(
            "p0", ["p1"], Ping(), engine.now, 1, RngRegistry(seed=9).stream("b")
        )
    assert engine.step()
    scheduled = sorted(
        (entry[2], entry[4], entry[5], type(entry[6]).__name__)
        for entry in pending_entries(engine)
    )
    engine.run()
    assert network.membership.process("p0").heard == ["pong"]
    assert network.membership.process("p2").heard == ["after"]
    return scheduled


@pytest.mark.parametrize("site", ["delivery", "sweep"])
class TestAReplyIsQueuedBeforeThePoll:
    def test_fast_and_checked_paths_number_it_like_the_in_handler_send(self, site):
        reference = _ping(SendsItself, "clean", site)
        assert [(dest, kind) for _, dest, _, kind in reference] == [
            ("p0", "Pong"), ("p2", "After")
        ]
        assert reference[0][0] + 1 == reference[1][0]
        for mode in ("clean", "traced", "faulted"):
            assert _ping(Returns, mode, site) == reference, mode

    def test_only_the_slow_path_enters_send_payload(self, site, monkeypatch):
        calls = _count_send_payload(monkeypatch)
        _ping(Returns, "clean", site)
        # The Ping itself (one site) and the continuation's After are
        # explicit sends; the returned Pong is not.
        assert [kind for _, _, kind in calls] == ["Ping", "After"][site == "sweep":]
        del calls[:]
        _ping(Returns, "traced", site)
        assert [kind for _, _, kind in calls] == ["Ping", "Pong", "After"][
            site == "sweep":
        ]


# ----------------------------------------------------------------------
# Fail loudly on a bad return
# ----------------------------------------------------------------------


class Careless(Sink):
    def on_note(self, sender, msg):
        return bool(msg.text)  # e.g. ``return self.space.adopt(...)``


class TestAHandlerReturnsNoneOrAMessage:
    @pytest.mark.parametrize("mode", ["traced", "faulted-at-delivery"])
    def test_the_checked_path_refuses_anything_else_where_it_happens(self, mode):
        network = _network("traced" if mode == "traced" else "clean", process=Careless)
        if mode != "traced":
            network._fast = False  # what a delivery-gating plan sets
        network.send_payload("p0", "p1", Note("x"))
        with pytest.raises(NetworkError) as refusal:
            network.engine.run()
        message = str(refusal.value)
        assert "Careless.on_note" in message
        assert "'p1'" in message and "returned a bool" in message
        assert network.sent_count == 1  # nothing was queued for the bool

    def test_a_direct_delivery_cannot_answer(self):
        process = Returns("p1", EventScheduler())
        with pytest.raises(NetworkError, match="Returns.on_ping of 'p1'"):
            process.deliver_payload("p0", Ping())

    @pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
    def test_every_protocol_handler_returns_none_or_a_message(self, protocol):
        """Every ``on_<type>`` of the node class, the migration handlers
        it inherits from ``RegisterNode`` included, once through the
        checked path — which would itself refuse a stray return value."""
        system = make_system(protocol=protocol, n=7, trace=True)
        network = system.network
        node = system.node(system.seed_pids[1])
        peer = system.seed_pids[2]
        messages = {
            f"on_{cls.__name__.lower()}": cls
            for module in (sync_reg, es_reg, abd, common)
            for cls in vars(module).values()
            if isinstance(cls, type) and issubclass(cls, tuple)
            and hasattr(cls, "_fields")
        }
        handlers = sorted(name for name in dir(type(node)) if name.startswith("on_"))
        assert {"on_migfetch", "on_miginstall"} <= set(handlers) & set(vars(RegisterNode))
        returned = {}

        def recording(name):
            def handler(self, sender, msg):
                returned[name] = getattr(type(self), name)(self, sender, msg)
                return returned[name]
            return handler

        # This node's own dispatch table (normally its class's cache).
        node._dispatch = {messages[name]: recording(name) for name in handlers}
        filler = {"sender": peer, "value": "v", "entries": None, "key": None}
        for name in handlers:
            cls = messages[name]
            sent = network.sent_count
            network._fire_checked(
                peer, node.pid, cls(*(filler.get(f, 1) for f in cls._fields)), None
            )
            reply = returned[name]
            if reply is None:
                continue
            assert isinstance(reply, tuple) and hasattr(reply, "_fields"), name
            assert f"on_{type(reply).__name__.lower()}" in handlers, name
            assert network.sent_count >= sent + 1, name
        assert sorted(returned) == handlers
        assert sum(reply is not None for reply in returned.values()) >= 2


# ----------------------------------------------------------------------
# (c) Traced ≡ untraced, and who enters ``send_payload``
# ----------------------------------------------------------------------


def _protocol_cell(protocol: str, trace: bool, faults: FaultPlan | None = None):
    system = make_system(protocol=protocol, n=11, trace=trace, faults=faults)
    joiner = system.spawn_joiner()
    system.run_for(4 * DELTA)
    for value in ("v1", "v2"):
        system.write(value)
        system.run_for(3 * DELTA)
        for pid in (joiner, system.seed_pids[3]):
            system.read(pid)
        system.run_for(3 * DELTA)
    network = system.network
    return {
        "digest": operation_digest(system.close()),
        "sent": network.sent_count,
        "delivered": network.delivered_count,
        "dropped": network.dropped_count,
    }


def _migration_cell(trace: bool):
    cluster = ClusterSystem(
        ClusterConfig(shards=3, keys=6, n=18, delta=DELTA, seed=7, trace=trace)
    )
    key = cluster.keys[0]
    record = cluster.schedule_migration(key, (cluster.shard_of(key) + 1) % 3, at=20.0)
    cluster.write("before", key=key)
    cluster.run_until(60.0)
    cluster.write("after", key=key)
    cluster.run_until(90.0)
    assert record.committed
    return {
        "digest": cluster_digest(cluster.close()),
        "sent": cluster.sent_count,
        "delivered": cluster.delivered_count,
        "dropped": cluster.dropped_count,
    }


CELLS = {
    "sync": lambda trace: _protocol_cell("sync", trace),
    "es": lambda trace: _protocol_cell("es", trace),
    "abd": lambda trace: _protocol_cell("abd", trace),
    "migration": _migration_cell,
}


@pytest.mark.parametrize("cell", sorted(CELLS))
class TestOneSlowPath:
    def test_traced_is_untraced_and_only_traced_enters_send_payload(
        self, cell, monkeypatch
    ):
        calls = _count_send_payload(monkeypatch)
        untraced = CELLS[cell](False)
        on_a_clean_link = {kind for _, _, kind in calls}
        del calls[:]
        traced = CELLS[cell](True)
        assert traced == untraced
        # Tracing on: every message of the run passed through
        # ``send_payload``.  Clean link: none did, but for the sends a
        # protocol still makes itself — ``on_esinquiry`` owes an
        # inquirer several messages, an ES join flushes one distinct
        # reply per parked request.
        assert len(calls) == traced["sent"] > 0
        assert on_a_clean_link <= ({"EsReply", "EsDlPrev"} if cell == "es" else set())


@pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
def test_a_fault_plan_sends_every_message_through_send_payload(
    protocol, monkeypatch
):
    """A transmit-only plan keeps the fire sites' inline dispatch but
    withdraws ``_p2p_uniform``: replies and rounds all take the gate."""
    calls = _count_send_payload(monkeypatch)
    plan = FaultPlan.of(LossFault(probability=0.05, payload_types={"NoSuchPayload"}))
    faulted = _protocol_cell(protocol, False, plan)
    assert len(calls) == faulted["sent"] > 0
    assert faulted == _protocol_cell(protocol, True, plan)
