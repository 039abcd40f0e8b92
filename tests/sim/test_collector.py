"""The cyclic collector and the kernel: what the pause rests on, and
whose switch it is.

``repro.sim.engine.collector_paused`` holds CPython's cyclic collector
off while the kernel allocates in bulk (the drain, the population
build, the plan build and install, the checkers).  That is safe only
because a live simulation makes no cyclic garbage — reference counting
frees every dead object the moment it dies — and polite only because
the switch is process-wide and goes back the way the caller left it.
This file holds both to account; it has its own CI step, so a kernel
change that starts leaking cycles fails under a name that says so.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.core.history import operation_digest
from repro.faults.plan import (
    CrashFault,
    DelaySpikeFault,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.protocols.common import MIGRATION_PAYLOADS
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.engine import EventScheduler, collector_paused
from repro.sim.errors import ExperimentError, SchedulerError
from repro.workloads.cluster import ClusterWorkloadDriver
from repro.workloads.generators import read_heavy_plan, write_heavy_plan
from repro.workloads.schedule import ReadOp, WorkloadDriver, WriteOp

DELTA = 5.0
HORIZON = 120.0

TRANSMIT_ONLY = FaultPlan.of(
    LossFault(probability=0.05, payload_types={"Reply", "EsReply", "EsAck"}),
    PartitionFault(
        start=14.0, end=18.0, group_a=frozenset({"p0001", "p0002"}), mode="defer"
    ),
    DelaySpikeFault(start=15.0, end=30.0, factor=4.0),
    name="transmit-only",
)
DELIVERY_GATING = FaultPlan.of(
    PartitionFault(start=20.0, end=24.0, group_a=frozenset({"p0001", "p0002"})),
    CrashFault(phase="WriteMsg", occurrence=3),
    CrashFault(phase="Inquiry", victim="sender", occurrence=5),
    name="drop-partition+crash",
)


# ----------------------------------------------------------------------
# (a) The invariant the pause rests on: a live run makes no cycles
# ----------------------------------------------------------------------


def _judged(protocol: str = "sync", **config) -> DynamicSystem:
    """Build → churn → plan → install → drive → close → check, the
    judged run in miniature; returns the system, still referenced."""
    system = DynamicSystem(
        SystemConfig(n=24, delta=DELTA, protocol=protocol, seed=3, **config)
    )
    system.attach_churn(rate=0.02, min_stay=3 * DELTA)
    plan = read_heavy_plan(
        0.0, HORIZON, 4 * DELTA, 0.5, system.rng.stream("test.plan")
    )
    WorkloadDriver(system).install(plan)
    system.run_until(HORIZON)
    system.close()
    system.check_safety()
    system.check_atomicity()
    system.check_liveness()
    return system


def _leaves_mid_operation() -> DynamicSystem:
    """A joiner evicted during its inquiry round, and the writer
    evicted with its write in flight."""
    system = DynamicSystem(SystemConfig(n=12, delta=DELTA, protocol="sync", seed=5))
    joiner = system.spawn_joiner()
    system.run_for(DELTA / 2)
    assert system.node(joiner)._mode.name == "LISTENING"
    system.leave(joiner)
    write = system.write()
    system.run_for(DELTA / 4)
    assert write.pending
    system.leave(system.writer_pid)
    system.run_for(6 * DELTA)
    system.check_liveness()
    return system


def _cluster_with_handoffs() -> ClusterSystem:
    """Three shards, one committed handoff, then — coordination lost —
    one aborted, with a workload routed across both."""
    cluster = ClusterSystem(ClusterConfig(shards=3, keys=6, n=18, delta=DELTA, seed=7))
    keys = cluster.keys
    committed = cluster.schedule_migration(
        keys[0], (cluster.shard_of(keys[0]) + 1) % 3, at=20.0
    )
    cluster.install_faults(
        FaultPlan.of(
            LossFault(
                probability=1.0, payload_types=MIGRATION_PAYLOADS, start=80.0
            ),
            name="late-mig-loss",
        ),
        scope_pids=False,
    )
    aborted = cluster.schedule_migration(
        keys[1], (cluster.shard_of(keys[1]) + 1) % 3, at=90.0
    )
    plan = [WriteOp(time=5.0 + 20.0 * i, key=keys[i % 6]) for i in range(10)]
    plan += [ReadOp(time=7.0 + 3.0 * i, key=keys[i % 6]) for i in range(60)]
    plan.sort(key=lambda op: op.time)
    ClusterWorkloadDriver(cluster).install(plan)
    cluster.run_until(260.0)
    assert committed.committed and aborted.aborted
    cluster.check_safety()
    cluster.check_atomicity()
    cluster.check_liveness()
    return cluster


NO_CYCLE_CELLS = {
    "sync-churn": lambda: _judged("sync"),
    "es-churn": lambda: _judged("es"),
    "abd-churn": lambda: _judged("abd"),
    "sync-traced": lambda: _judged("sync", trace=True),
    "es-traced": lambda: _judged("es", trace=True),
    "sync-transmit-only-plan": lambda: _judged("sync", faults=TRANSMIT_ONLY),
    "es-transmit-only-plan": lambda: _judged("es", faults=TRANSMIT_ONLY),
    "sync-drop-partition-crash": lambda: _judged("sync", faults=DELIVERY_GATING),
    "leave-mid-join-and-mid-write": _leaves_mid_operation,
    "cluster-committed-and-aborted-handoff": _cluster_with_handoffs,
}


@pytest.fixture
def collector_off():
    """Start from a clean heap with the collector off; afterwards put
    the debug flags, the garbage list and the switch back."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


class TestALiveRunMakesNoCycles:
    """With the collector off for the whole run, a full collection
    afterwards — the system still referenced — finds nothing.  If a
    cell fails here, break the cycle in the kernel."""

    @pytest.mark.parametrize("cell", sorted(NO_CYCLE_CELLS))
    def test_no_unreachable_objects_after_the_run(self, collector_off, cell):
        system = NO_CYCLE_CELLS[cell]()
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
        assert (unreachable, kinds) == (0, [])
        assert system.engine.fired_count > 0  # and it did run

    def test_the_probe_can_see_a_cycle(self, collector_off):
        # The oracle's own sanity check: a dropped self-referencing
        # list is exactly what the cells above must not produce.
        loop: list = []
        loop.append(loop)
        del loop
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert gc.collect() == 1


# ----------------------------------------------------------------------
# (b) The switch is the caller's
# ----------------------------------------------------------------------


def _raise(error: Exception) -> None:
    raise error


def _run_until(engine: EventScheduler) -> None:
    engine.run_until(50.0)


def _run_bounded(engine: EventScheduler) -> None:
    engine.run(max_events=3)


def _raising_handler(engine: EventScheduler) -> None:
    engine.schedule(0.5, _raise, KeyError("boom"))
    with pytest.raises(KeyError):
        engine.run()


def _reentry(engine: EventScheduler) -> None:
    caught = []

    def reenter() -> None:
        try:
            engine.run()
        except SchedulerError as error:
            caught.append(error)

    engine.schedule(0.5, reenter)
    engine.run()
    assert len(caught) == 1


ENGINE_CALLS = {
    "run_until": _run_until,
    "run-max_events": _run_bounded,
    "handler-raises": _raising_handler,
    "reentry-rejected": _reentry,
}


def _build(_system: DynamicSystem) -> None:
    DynamicSystem(SystemConfig(n=8, delta=DELTA, seed=1))


def _install(system: DynamicSystem) -> None:
    WorkloadDriver(system).install([WriteOp(time=1.0), ReadOp(time=9.0)])


def _install_twice(system: DynamicSystem) -> None:
    driver = WorkloadDriver(system)
    driver.install([])
    with pytest.raises(ExperimentError):
        driver.install([])


def _check(system: DynamicSystem) -> None:
    system.write()
    system.run_for(4 * DELTA)
    system.read(system.seed_pids[1])
    system.run_for(DELTA)
    assert system.check_safety().is_safe
    assert system.check_atomicity().is_atomic


def _read_heavy_plan(system: DynamicSystem) -> None:
    read_heavy_plan(0.0, HORIZON, 4 * DELTA, 0.5, system.rng.stream("test.plan"))


def _write_heavy_plan(system: DynamicSystem) -> None:
    write_heavy_plan(0.0, HORIZON, 2 * DELTA, 2, system.rng.stream("test.plan"))


def _write_heavy_plan_refused(system: DynamicSystem) -> None:
    with pytest.raises(ExperimentError, match="write_period must be positive"):
        write_heavy_plan(0.0, HORIZON, 0.0, 2, system.rng.stream("test.plan"))


SYSTEM_CALLS = {
    "DynamicSystem": _build,
    "install": _install,
    "install-raises": _install_twice,
    "check_safety-check_atomicity": _check,
    "read_heavy_plan": _read_heavy_plan,
    "write_heavy_plan": _write_heavy_plan,
    "write_heavy_plan-raises": _write_heavy_plan_refused,
}


@pytest.fixture(params=[True, False], ids=["enabled-before", "disabled-before"])
def collector_state(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestTheSwitchIsTheCallers:
    @pytest.mark.parametrize("call", sorted(ENGINE_CALLS))
    def test_engine_entry_points_restore_it(self, collector_state, call):
        engine = EventScheduler()
        for tick in range(1, 8):
            engine.schedule(float(tick), lambda: None)
        ENGINE_CALLS[call](engine)
        assert gc.isenabled() is collector_state

    @pytest.mark.parametrize("call", sorted(SYSTEM_CALLS))
    def test_bulk_allocation_sites_restore_it(self, collector_state, call):
        SYSTEM_CALLS[call](DynamicSystem(SystemConfig(n=8, delta=DELTA, seed=1)))
        assert gc.isenabled() is collector_state

    def test_nested_pauses_restore_the_outer_state(self, collector_state):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner exit left the outer pause on
        assert gc.isenabled() is collector_state

    def test_a_raising_body_restores_it(self, collector_state):
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert gc.isenabled() is collector_state

    def test_paused_inside_a_drain_but_not_inside_step(self):
        gc.enable()
        seen: dict[str, bool] = {}
        engine = EventScheduler()
        engine.schedule(1.0, lambda: seen.setdefault("step", gc.isenabled()))
        engine.schedule(2.0, lambda: seen.setdefault("drain", gc.isenabled()))
        assert engine.step()  # not a bulk path: the collector stays on
        engine.run()
        assert seen == {"step": True, "drain": False}
        assert gc.isenabled()

    @pytest.mark.parametrize("build", [read_heavy_plan, write_heavy_plan])
    def test_paused_while_a_plan_is_drawn(self, build):
        seen = set()

        class Probe(random.Random):
            def random(self) -> float:
                seen.add(gc.isenabled())
                return super().random()

        gc.enable()
        assert build(0.0, HORIZON, 4 * DELTA, 2, Probe(5))
        assert seen == {False}
        assert gc.isenabled()


# ----------------------------------------------------------------------
# (d) Many small drains are one drain
# ----------------------------------------------------------------------


def _surface(system: DynamicSystem) -> tuple:
    network = system.network
    return (
        operation_digest(system.close()),
        system.engine.fired_count,
        system.engine.pending_count,
        network.sent_count,
        network.delivered_count,
        network.dropped_count,
        system.engine.now,
    )


def _installed_system() -> DynamicSystem:
    system = DynamicSystem(SystemConfig(n=16, delta=DELTA, protocol="sync", seed=9))
    system.attach_churn(rate=0.03, min_stay=3 * DELTA)
    plan = read_heavy_plan(
        0.0, HORIZON, 4 * DELTA, 0.5, system.rng.stream("test.plan")
    )
    WorkloadDriver(system).install(plan)
    return system


def test_a_thousand_small_steps_equal_one_call():
    whole = _installed_system()
    whole.run_until(HORIZON)
    stepped = _installed_system()
    for step in range(1, 1001):
        stepped.run_until(HORIZON * step / 1000)
    assert _surface(stepped) == _surface(whole)
