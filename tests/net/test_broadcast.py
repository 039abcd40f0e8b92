"""Unit tests for the timely-delivery broadcast service."""

from dataclasses import dataclass

import pytest

from repro.net.broadcast import BroadcastService
from repro.net.delay import SynchronousDelay
from repro.net.network import Network
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.errors import ConfigError, NetworkError
from repro.sim.process import SimProcess
from repro.sim.trace import TraceKind

DELTA = 5.0


@dataclass(frozen=True)
class News:
    item: str


class Listener(SimProcess):
    def __init__(self, pid, engine):
        super().__init__(pid, engine)
        self.heard: list[tuple[str, str, float]] = []

    def on_news(self, sender, msg):
        self.heard.append((sender, msg.item, self.engine.now))


def build(engine, membership, trace, rng, entrant_policy="none", members=3):
    model = SynchronousDelay(delta=DELTA)
    network = Network(engine, membership, model, trace, rng)
    service = BroadcastService(
        engine,
        membership,
        network,
        model,
        trace,
        rng,
        window=DELTA,
        entrant_policy=entrant_policy,
    )
    for i in range(members):
        membership.enter(Listener(f"p{i}", engine))
    return service


class TestTimelyDelivery:
    def test_everyone_present_delivers_within_delta(
        self, engine, membership, trace, rng
    ):
        service = build(engine, membership, trace, rng)
        engine.run_until(10.0)
        service.broadcast("p0", News("flash"))
        engine.run()
        for process in membership.present_processes():
            assert len(process.heard) == 1
            _, _, at = process.heard[0]
            assert 10.0 < at <= 10.0 + DELTA

    def test_sender_delivers_its_own_broadcast(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng)
        service.broadcast("p0", News("x"))
        engine.run()
        assert len(membership.process("p0").heard) == 1

    def test_departed_recipient_misses(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng)
        service.broadcast("p0", News("x"))
        membership.process("p1").depart()
        membership.leave("p1", 0.0)
        engine.run()
        assert membership.process("p1").heard == []
        assert len(membership.process("p2").heard) == 1

    def test_departed_sender_rejected(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng)
        membership.process("p0").depart()
        membership.leave("p0", 0.0)
        with pytest.raises(NetworkError):
            service.broadcast("p0", News("x"))

    def test_deliveries_share_broadcast_id(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng)
        bid = service.broadcast("p0", News("x"))
        engine.run()
        delivers = [r for r in trace if r.kind is TraceKind.DELIVER]
        assert len(delivers) == 3
        assert sum(r.kind is TraceKind.BROADCAST for r in trace) == 1
        assert all(isinstance(bid, int) for _ in delivers)

    def test_broadcast_count(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng)
        service.broadcast("p0", News("a"))
        service.broadcast("p1", News("b"))
        assert service.broadcast_count == 2


class TestEntrantPolicies:
    def _enter_late(self, engine, membership):
        late = Listener("late", engine)
        membership.enter(late)
        return late

    def test_none_policy_excludes_entrants(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng, entrant_policy="none")
        service.broadcast("p0", News("x"))
        engine.run_until(1.0)
        late = self._enter_late(engine, membership)
        offered = service.offer_to_entrant(late)
        engine.run()
        assert offered == 0
        assert late.heard == []

    def test_all_policy_delivers_to_entrants_in_window(
        self, engine, membership, trace, rng
    ):
        service = build(engine, membership, trace, rng, entrant_policy="all")
        service.broadcast("p0", News("x"))
        engine.run_until(1.0)
        late = self._enter_late(engine, membership)
        offered = service.offer_to_entrant(late)
        engine.run()
        assert offered == 1
        assert len(late.heard) == 1
        _, _, at = late.heard[0]
        assert 1.0 < at <= DELTA  # still within the sender's window

    def test_entrant_after_window_misses(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng, entrant_policy="all")
        service.broadcast("p0", News("x"))
        engine.run_until(DELTA + 1.0)
        late = self._enter_late(engine, membership)
        assert service.offer_to_entrant(late) == 0

    def test_probabilistic_policy_bounds(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng, entrant_policy=0.5)
        hits = 0
        engine.run_until(1.0)
        for i in range(40):
            service.broadcast("p0", News(f"b{i}"))
        late = self._enter_late(engine, membership)
        hits = service.offer_to_entrant(late)
        assert 0 < hits < 40  # some but not all, w.h.p. at p=0.5

    def test_invalid_policy_rejected(self, engine, membership, trace, rng):
        with pytest.raises(ConfigError):
            build(engine, membership, trace, rng, entrant_policy="sometimes")
        with pytest.raises(ConfigError):
            build(engine, membership, trace, rng, entrant_policy=1.5)

    def test_a_configured_probability_outside_the_unit_interval_is_refused(self):
        with pytest.raises(
            ConfigError, match=r"entrant probability 1\.5 not in \[0, 1\]"
        ):
            DynamicSystem(SystemConfig(n=5, entrant_policy=1.5))

    def test_entrant_not_offered_twice(self, engine, membership, trace, rng):
        service = build(engine, membership, trace, rng, entrant_policy="all")
        service.broadcast("p0", News("x"))
        engine.run_until(1.0)
        late = self._enter_late(engine, membership)
        assert service.offer_to_entrant(late) == 1
        assert service.offer_to_entrant(late) == 0  # already a recipient
