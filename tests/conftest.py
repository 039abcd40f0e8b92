"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro.net.network as network_module
from repro.net.delay import SynchronousDelay
from repro.protocols.sync_reg import SynchronousRegisterNode
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.engine import EventScheduler
from repro.sim.events import Priority
from repro.sim.membership import Membership
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog


@pytest.fixture
def engine() -> EventScheduler:
    return EventScheduler()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(seed=1234)


@pytest.fixture
def trace() -> TraceLog:
    return TraceLog()


@pytest.fixture
def membership() -> Membership:
    return Membership()


def pending_entries(engine: EventScheduler) -> list:
    """The live queue entries of ``engine``, whole, in firing order:
    its three regions (overflow heap, active epoch, future buckets) and
    the entries its filed vectors and fan-in columns have yet to build,
    merged and sorted, cancelled entries left out."""
    entries = [*engine._overflow, *engine._cur[engine._pos :]]
    for bucket in engine._buckets.values():
        entries.extend(bucket)
    for instants, sequences, pointers in engine._fan_ins.values():
        for k, instant in enumerate(instants):
            item, dest, sender, payload = pointers[4 * k : 4 * k + 4]
            entries.append((
                instant, int(Priority.DELIVERY), sequences[k],
                item, dest, sender, payload, None,
            ))
    for vector in engine._vectors.values():
        while vector is not None:
            vector, lo, instants, fields, base, priority, item, *tail = vector
            entries.extend(zip(
                instants[lo:], priority, range(base + lo, base + len(instants)),
                item, fields[lo:], *tail,
            ))
    return [entry for entry in sorted(entries) if not entry[3].cancelled]


@contextmanager
def every_fanout_a_vector(engine):
    """Lower the dense-fan-out floor to 0, so a fault-free fan-out of
    any size takes the vector arm (and the replies to its arrivals the
    calendar's columns), and yield the ``count`` of every vector
    ``engine`` is handed meanwhile."""
    counts = []
    schedule_vector = engine._schedule_vector

    def spy(instants, *rest):
        counts.append(len(instants))
        schedule_vector(instants, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "_DENSE", 0)
        patch.setattr(engine, "_schedule_vector", spy)
        yield counts


@contextmanager
def every_read_a_handle():
    """Record each planned synchronous read as the handle its node
    returns, through ``History.record_operation`` — the driver's path
    for a node whose reads are not rows — instead of as a row through
    ``History.record_read``; yield the handles so recorded.  The op id
    is drawn where the row would draw it."""
    handles = []
    read = SynchronousRegisterNode.read

    def read_a_handle(node, key=None):
        handle = read(node, key)
        handles.append(handle)
        return handle

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SynchronousRegisterNode, "reads_as_rows", False)
        patch.setattr(SynchronousRegisterNode, "read", read_a_handle)
        yield handles


def make_system(**overrides) -> DynamicSystem:
    """A small synchronous system with test-friendly defaults."""
    params = {
        "n": 10,
        "delta": 5.0,
        "protocol": "sync",
        "seed": 42,
    }
    params.update(overrides)
    return DynamicSystem(SystemConfig(**params))


def read_on_owner(cluster, key=None):
    """Read ``key`` on the shard of ``cluster`` that owns it now, by that
    shard's designated writer (always present, so a test needs no pid
    bookkeeping)."""
    shard = cluster.shard_for(key)
    return shard.read(shard.writer_pid, key=key)


@pytest.fixture
def sync_system() -> DynamicSystem:
    return make_system()


@pytest.fixture
def es_system() -> DynamicSystem:
    return make_system(protocol="es", n=11)


@pytest.fixture
def abd_system() -> DynamicSystem:
    return make_system(protocol="abd")


@pytest.fixture
def delay_model() -> SynchronousDelay:
    return SynchronousDelay(delta=5.0)
