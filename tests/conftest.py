"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.net.delay import SynchronousDelay
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.engine import EventScheduler
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
    its three regions (overflow heap, active epoch, future buckets)
    merged and sorted, cancelled entries left out."""
    entries = [*engine._overflow, *engine._cur[engine._pos :]]
    for bucket in engine._buckets.values():
        entries.extend(bucket)
    return [entry for entry in sorted(entries) if not entry[3].cancelled]


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
