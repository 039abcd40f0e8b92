"""Unit tests for the point-to-point network.

``Network.send_payload`` is the one entry point; it returns the instant
the payload arrives at — also for a send the fault gate vetoed.
"""

import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.net.delay import (
    DELAY_MODEL_NAMES,
    AdversarialDelay,
    DelayModel,
    SynchronousDelay,
    make_delay,
)
from repro.net.network import Network, _FanoutSweep
from repro.sim.engine import EventScheduler
from repro.sim.errors import ConfigError, NetworkError, UnknownProcessError
from repro.sim.membership import Membership
from repro.sim.process import SimProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceKind, TraceLog


@dataclass(frozen=True)
class Note:
    text: str


class Sink(SimProcess):
    def __init__(self, pid, engine):
        super().__init__(pid, engine)
        self.notes: list[tuple[str, str, float]] = []

    def on_note(self, sender, msg):
        self.notes.append((sender, msg.text, self.engine.now))


@pytest.fixture
def net(engine, membership, trace, rng):
    network = Network(engine, membership, SynchronousDelay(delta=5.0), trace, rng)
    for pid in ("p1", "p2"):
        membership.enter(Sink(pid, engine))
    return network


@pytest.fixture
def send(net):
    return net.send_payload


class TestSend:
    def test_message_arrives_within_bound(self, send, engine, membership):
        deliver_at = send("p1", "p2", Note("hi"))
        assert 0.0 < deliver_at <= 5.0
        engine.run()
        receiver = membership.process("p2")
        assert receiver.notes == [("p1", "hi", deliver_at)]

    def test_a_vetoed_send_still_returns_its_arrival_instant(
        self, net, send, engine, rng, membership
    ):
        net.install_faults(
            FaultInjector(
                FaultPlan.of(LossFault(probability=1.0)), rng.stream("test.faults")
            )
        )
        deliver_at = send("p1", "p2", Note("lost"))
        assert 0.0 < deliver_at <= 5.0
        assert engine.pending_count == 0  # counted and traced, never scheduled
        assert (net.sent_count, net.faulted_count) == (1, 1)
        engine.run()
        assert membership.process("p2").notes == []

    def test_send_to_self_is_legal(self, send, engine, membership):
        send("p1", "p1", Note("echo"))
        engine.run()
        assert membership.process("p1").notes[0][0] == "p1"

    def test_departed_sender_rejected(self, send, membership):
        membership.process("p1").depart()
        membership.leave("p1", 0.0)
        with pytest.raises(NetworkError):
            send("p1", "p2", Note("x"))

    def test_unknown_destination_rejected(self, send):
        with pytest.raises(UnknownProcessError):
            send("p1", "ghost", Note("x"))

    def test_send_to_departed_is_dropped_on_delivery(
        self, net, send, engine, membership, trace
    ):
        send("p1", "p2", Note("x"))
        membership.process("p2").depart()
        membership.leave("p2", 0.0)
        engine.run()
        assert membership.process("p2").notes == []
        assert net.dropped_count == 1
        assert trace.count(TraceKind.DROP) == 1

    def test_receiver_leaving_mid_flight_drops(self, net, send, engine, membership):
        # Leave strictly before the delivery instant.
        leave_at = send("p1", "p2", Note("x")) / 2.0
        engine.run_until(leave_at)
        membership.process("p2").depart()
        membership.leave("p2", leave_at)
        engine.run()
        assert membership.process("p2").notes == []
        assert net.dropped_count == 1

    def test_counters(self, net, send, engine):
        send("p1", "p2", Note("a"))
        send("p2", "p1", Note("b"))
        engine.run()
        assert net.sent_count == 2
        assert net.delivered_count == 2
        assert net.dropped_count == 0

    def test_trace_records_send_and_receive(self, send, engine, trace):
        send("p1", "p2", Note("a"))
        engine.run()
        assert trace.count(TraceKind.SEND) == 1
        assert trace.count(TraceKind.RECEIVE) == 1

    def test_reliability_no_loss_no_duplication(self, send, engine, membership):
        for i in range(50):
            send("p1", "p2", Note(str(i)))
        engine.run()
        texts = sorted(int(t) for (_, t, _) in membership.process("p2").notes)
        assert texts == list(range(50))

    def test_known_bound_reflects_model(self, net):
        assert net.known_bound == 5.0


class TestDropAccounting:
    """Fault-induced drops and departed-destination drops are counted
    separately (``faulted_count`` vs ``dropped_count``) and carry a
    ``reason`` in their trace records."""

    def test_departed_drop_reason_in_trace(
        self, net, send, engine, membership, trace
    ):
        send("p1", "p2", Note("x"))
        membership.process("p2").depart()
        membership.leave("p2", 0.0)
        engine.run()
        (record,) = trace.filter(TraceKind.DROP)
        assert record.details["reason"] == "departed"
        assert net.dropped_count == 1
        assert net.faulted_count == 0

    def test_fault_drop_counted_separately(self, net, send, engine, rng, trace):
        net.install_faults(
            FaultInjector(
                FaultPlan.of(LossFault(probability=1.0)), rng.stream("test.faults")
            )
        )
        send("p1", "p2", Note("x"))
        engine.run()
        assert net.faulted_count == 1
        assert net.dropped_count == 0
        assert net.sent_count == 1
        (record,) = trace.filter(TraceKind.DROP)
        assert record.details["reason"] == "loss"

    def test_no_injector_means_no_fault_accounting(self, net, send, engine):
        send("p1", "p2", Note("x"))
        engine.run()
        assert net.faults is None
        assert net.faulted_count == 0


def _observe(traced, plan, depart_dest):
    """One fresh three-sink world: send a→b twice and b→c once, run to
    quiescence, and report everything a send may touch."""
    engine, membership = EventScheduler(), Membership()
    trace, rng = TraceLog(enabled=traced), RngRegistry(seed=1234)
    net = Network(engine, membership, SynchronousDelay(delta=5.0), trace, rng)
    for pid in ("a", "b", "c"):
        membership.enter(Sink(pid, engine))

    def crash(pid):
        membership.process(pid).depart()
        membership.leave(pid, engine.now)

    if plan is not None:
        net.install_faults(FaultInjector(plan, rng.stream("test.faults"), crash))
    scheduled = []
    for sender, dest, text in (("a", "b", "1"), ("a", "b", "2"), ("b", "c", "3")):
        instant = net.send_payload(sender, dest, Note(text))
        scheduled.append((instant, engine.pending_count, engine.next_event_time()))
    if depart_dest:
        crash("b")
    engine.run()
    return {
        "rng": net._rng.getstate(),
        "scheduled": scheduled,
        "counts": (
            net.sent_count, net.delivered_count, net.dropped_count,
            net.faulted_count, engine.fired_count,
        ),
        "faults": net.faults.counters() if plan is not None else None,
        "trace": [(r.time, r.kind, r.process, r.details) for r in trace],
        "received": {p.pid: p.notes for p in membership.present_processes()},
    }


SEND_CASES = {
    "clean": (None, False),
    "loss_at_send": (FaultPlan.of(LossFault(probability=0.5)), False),
    "loss_at_deliver": (
        FaultPlan.of(
            PartitionFault(
                start=0.05, end=50.0, group_a=frozenset({"b"}), mode="drop"
            )
        ),
        False,
    ),
    "deferred_at_send": (
        FaultPlan.of(
            PartitionFault(
                start=0.0, end=12.0, group_a=frozenset({"b"}), mode="defer"
            )
        ),
        False,
    ),
    "crash_at_deliver": (
        FaultPlan.of(CrashFault(phase="Note", victim="dest", pid="b", occurrence=2)),
        False,
    ),
    "departed_destination": (None, True),
}


class TestTracingOnlyAddsTheTrace:
    """Tracing takes every delivery through ``_fire_checked``; leaving it
    off lets a transmit-only plan (or none) dispatch inline.  Either
    way: same RNG draw, counters, scheduled instants, fault accounting
    and receptions — the records are the only difference."""

    @pytest.mark.parametrize("case", SEND_CASES)
    def test_identical_observables(self, case):
        plan, depart_dest = SEND_CASES[case]
        plain = _observe(False, plan, depart_dest)
        traced = _observe(True, plan, depart_dest)
        assert plain["trace"] == [] and traced.pop("trace")
        plain.pop("trace")
        assert plain == traced
        # ... and the case really exercised what its name says.
        sent, delivered, dropped, faulted, _ = plain["counts"]
        assert sent == 3
        assert (faulted > 0) == case.startswith("loss")
        assert (dropped > 0) == (case in ("crash_at_deliver", "departed_destination"))
        assert delivered + dropped + faulted == 3
        if case == "loss_at_deliver":
            # Both sends to "b" were scheduled, then eaten on arrival.
            assert [pending for _, pending, _ in plain["scheduled"]] == [1, 2, 3]
        if case == "deferred_at_send":
            assert [at for at, _, _ in plain["scheduled"][:2]] == [12.0, 12.0]


class _Declares(DelayModel):
    """A custom model whose declared uniform parameters are the test's."""

    def __init__(self, p2p=None, broadcast=None):
        self._p2p, self._broadcast = p2p, broadcast

    def sample(self, sender, dest, payload, send_time, rng):
        return 1.0

    def p2p_uniform(self):
        return self._p2p

    def broadcast_uniform(self):
        return self._broadcast


class TestDeclaredUniformParameters:
    """The inline draws (``send_payload``, the sweep) skip the
    per-message ``delay <= 0`` test; what makes that safe is checked
    once, at construction, for any ``DelayModel`` — not assumed of the
    ones that happen to exist."""

    @pytest.mark.parametrize("method", ["p2p_uniform", "broadcast_uniform"])
    @pytest.mark.parametrize(
        "params",
        [
            (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-0.5, 1.0),  # lo
            (0.5, math.nan), (0.5, -1.0), (0.5, math.inf),  # span
        ],
    )
    def test_a_bad_declaration_is_refused_by_name(
        self, engine, membership, trace, rng, method, params
    ):
        kwarg = "p2p" if method == "p2p_uniform" else "broadcast"
        with pytest.raises(ConfigError) as refusal:
            Network(engine, membership, _Declares(**{kwarg: params}), trace, rng)
        message = str(refusal.value)
        assert f"_Declares.{method}() declares" in message
        assert repr(params) in message

    def test_a_sound_declaration_draws_inline(self, engine, membership, trace, rng):
        model = _Declares(p2p=(0.5, 0.0), broadcast=(0.5, 2.0))
        network = Network(
            engine, membership, model, TraceLog(enabled=False), rng
        )
        assert network._p2p_uniform == (0.5, 0.0)
        assert network._bcast_uniform == (0.5, 2.0)
        membership.enter(Sink("p1", engine))
        # ``sample`` says 1.0; the declaration says 0.5 and wins.
        assert network.send_payload("p1", "p1", Note("x")) == 0.5

    @pytest.mark.parametrize("name", DELAY_MODEL_NAMES + ("adversarial",))
    def test_every_built_in_model_passes(self, engine, membership, trace, rng, name):
        model = (
            AdversarialDelay(lambda s, d, p, t: 1.0)
            if name == "adversarial"
            else make_delay(name, 5.0)
        )
        network = Network(engine, membership, model, TraceLog(enabled=False), rng)
        assert network._p2p_uniform == model.p2p_uniform()
        assert network._bcast_uniform == model.broadcast_uniform()


class _Scripted:
    """An ``rng`` whose ``random()`` replays the test's draws."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


class TestPairFreeFanoutOrder:
    @given(
        draws=st.lists(
            # A narrow pool forces exact instant ties.
            st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.999)), min_size=1, max_size=40
        ),
        now=st.sampled_from((0.0, 3.5)),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_sweep_order_is_the_instant_index_pair_sort(self, draws, now):
        engine = EventScheduler(start=now)
        model = SynchronousDelay(delta=5.0)
        network = Network(
            engine, Membership(), model, TraceLog(enabled=False), RngRegistry(seed=1)
        )
        lo, span = model.broadcast_uniform()
        dests = [f"p{i}" for i in range(len(draws))]
        network.deliver_fanout("p0", dests, Note("x"), now, 7, _Scripted(draws))
        (entry,) = engine._pending_entries()
        sweep = entry[3]
        assert type(sweep) is _FanoutSweep and engine.pending_count == len(draws)
        pairs = sorted((now + (lo + span * r), i) for i, r in enumerate(draws))
        assert list(sweep.times) == [instant for instant, _ in pairs]
        assert list(sweep.dests) == [dests[i] for _, i in pairs]
        assert entry[0] == pairs[0][0]

    def test_one_gather_is_the_two_sort_result_on_crafted_ties(self):
        """The arrivals are argsorted once and both vectors gathered
        through that order; the instants used to be sorted a second
        time.  Runs of exact ties, at the front, inside and at the back."""
        draws = [0.5, 0.0, 0.5, 0.999, 0.0, 0.25, 0.999, 0.5, 0.0, 0.999]
        now = 3.5
        engine = EventScheduler(start=now)
        model = SynchronousDelay(delta=5.0)
        network = Network(
            engine, Membership(), model, TraceLog(enabled=False), RngRegistry(seed=1)
        )
        lo, span = model.broadcast_uniform()
        dests = [f"p{i}" for i in range(len(draws))]
        network.deliver_fanout("p0", dests, Note("x"), now, 7, _Scripted(draws))
        sweep = engine._pending_entries()[0][3]
        times = [now + (lo + span * r) for r in draws]
        order = sorted(range(len(times)), key=times.__getitem__)
        times.sort()
        assert sweep.times == times
        assert sweep.dests == [dests[i] for i in order]
        assert order[:3] == [1, 4, 8] and order[-3:] == [3, 6, 9]  # ties by index
