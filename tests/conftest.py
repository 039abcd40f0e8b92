"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

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


def committed_bench_artifact() -> dict:
    """The repository's committed ``BENCH_kernel.json``: the one place
    the six determinism digests are written down."""
    path = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
    return json.loads(path.read_text())


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
