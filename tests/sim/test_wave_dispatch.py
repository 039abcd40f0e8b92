"""Unit tests for the wave-handler cache.

``SimProcess`` subclasses declare ``wave_handlers`` (payload class →
staticmethod name); ``_build_wave_cache`` resolves them into the
dispatch map with one safety rule: a wave is only trusted when it is at
least as specific in the MRO as the ``on_<type>`` handler it replaces,
so a subclass overriding a handler can never be silently bypassed by an
inherited wave.
"""

from dataclasses import dataclass

from repro.sim.engine import EventScheduler
from repro.sim.process import SimProcess, _build_wave_cache


@dataclass(frozen=True)
class Ping:
    tag: str


@dataclass(frozen=True)
class Pong:
    tag: str


class WavedNode(SimProcess):
    """Declares a wave for Ping only."""

    wave_handlers = {Ping: "_wave_ping"}

    def __init__(self, pid, engine):
        super().__init__(pid, engine)
        self.log = []

    def on_ping(self, sender, payload):
        self.log.append(("on_ping", sender, payload.tag))

    def on_pong(self, sender, payload):
        self.log.append(("on_pong", sender, payload.tag))

    @staticmethod
    def _wave_ping(network, sender, payload, proc):
        proc.log.append(("wave", sender, payload.tag))


class OverridingNode(WavedNode):
    """Overrides ``on_ping`` WITHOUT re-declaring the wave."""

    def on_ping(self, sender, payload):
        self.log.append(("override", sender, payload.tag))


class ReWavedNode(OverridingNode):
    """Overrides the handler AND ships a matching wave."""

    @staticmethod
    def _wave_ping(network, sender, payload, proc):
        proc.log.append(("rewave", sender, payload.tag))


def test_declared_wave_resolves():
    waves = _build_wave_cache(WavedNode)
    assert waves[Ping] is WavedNode.__dict__["_wave_ping"].__func__
    assert Pong not in waves  # no wave declared for Pong


def test_handler_override_drops_the_inherited_wave():
    """The safety rule: an inherited wave would bypass the subclass's
    ``on_ping`` override, so the cache must not contain it."""
    assert Ping not in _build_wave_cache(OverridingNode)


def test_redeclared_wave_is_trusted_again():
    """A subclass shipping its own wave (as specific as its handler)."""
    waves = _build_wave_cache(ReWavedNode)
    assert waves[Ping] is ReWavedNode.__dict__["_wave_ping"].__func__


def test_instances_expose_the_class_cache():
    engine = EventScheduler()
    node = WavedNode("p1", engine)
    other = WavedNode("p2", engine)
    assert node._waves is other._waves  # built once per class
    assert OverridingNode("p3", engine)._waves is not node._waves
    node._waves[Ping](None, "p0", Ping("hi"), node)
    assert node.log == [("wave", "p0", "hi")]
