"""The per-process footprint ratchet.

A population's resident cost is ``n`` times what one seed costs, and a
seed that never runs an operation should cost what it *uses*: its
slots, one register-cell dict, its presence record and its pid.  These
tests hold the traced bytes and allocated blocks per seed under a
budget (the measured value + ~10 %, CPython 3.11) so that a change
which re-adds eager per-node state — an empty list, a set, a phase
object, a ``__dict__`` — fails here, under a name that says so.

A message, likewise, costs what it carries: in flight it is its queue
tuple (plus the arrival instant and the sequence number the tuple
holds), and once delivered the network keeps nothing of it.  The
per-message ratchet below fails a change that re-adds an object per
send or a free list that pins the run's high-water mark.

An operation costs what it records: planned, it is its plan op and the
instant it fires at (the whole plan holds one queue slot); completed
and judged, it is that plus its handle and its judgement tuple.  The
per-operation ratchet fails a change that re-adds an ``Event`` per
planned op, a callback list per handle or a ``__dict__`` on either.

And a send is a reply or a round: on a clean link a delivered message
enters one Python frame of ``repro.net`` — the fire site that dispatches
it and queues the handler's answer — plus one ``send_round`` frame a
round; ``Network.send_payload``, the slow path, is not entered at all.
The exact-cost ratchet counts frames under ``sys.setprofile`` on two
small runs, so a change that puts a frame or a gate back per message
fails here on any runner, however noisy.

And a quorum message is one probe: an ES or ABD handler finds its phase
and its cell through the message's key as it stands, so a delivery
enters its ``on_<type>`` frame and little else of ``repro.protocols`` /
``repro.core`` — no accessor chain — and the fault gate is entered only
for a payload class some live fault could touch.  Same instrument, two
more counts.
CI runs this file as its own step ("per-process, per-message and
per-operation footprint"), and the two exact-count ratchets again under
the steps named after what they hold.
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc

import pytest

import repro.core
import repro.net
import repro.protocols
from repro.faults import FaultPlan, LossFault
from repro.faults.injector import FaultInjector
from repro.net.network import Network
from repro.protocols.sync_reg import Reply
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.workloads.schedule import ReadOp, WorkloadDriver, WriteOp

N = 2000
MESSAGES = 20_000

#: Bytes and allocated blocks per un-drained ``send_payload``.  Measured
#: here (3.11): 168 / 3.0 — the 8-field queue tuple, its instant and its
#: sequence number; a pooled entry object per message read 208 / 4.0.
MESSAGE_BUDGET = (176, 3)

OPERATIONS = 20_000

#: Bytes and allocated blocks per planned local read once installed, and
#: once completed and judged.  Measured here (3.11): 107 / 2.0 — the
#: slotted plan op and its instant, plus a list slot each in the plan,
#: its sorted copy and the series' instants — and 378 / 5.0: those, the
#: handle, its op id and the judgement tuple.  One ``Event`` per planned
#: op read 461 / 8.1 installed; a ``__dict__`` per plan op and a
#: callback list per handle, 470 / 7.2 judged.
PLANNED_BUDGET = (118, 2)
JUDGED_BUDGET = (416, 5)

#: protocol -> (bytes per seed, allocated blocks per seed).  Measured
#: here (n = 2000, 3.11): 757 / 8.1, 1051 / 12.0, 941 / 10.1; with two
#: dicts a tracker and ES's two pending sets built eagerly: 773 / 8.1,
#: 1707 / 18.0, 1283 / 16.0; before per-process state went lazy and
#: slotted: 1563 / 17.1, 2147 / 24.1, 1667 / 21.1.
BUDGET = {
    "sync": (850, 9),
    "es": (1160, 13),
    "abd": (1040, 11),
}


def traced_build(**config) -> tuple[DynamicSystem, float, float]:
    """Build a system under tracemalloc; bytes and blocks per seed."""
    # One throwaway build first: per-class dispatch caches, interned
    # names and imports are paid once per process, not once per seed.
    DynamicSystem(SystemConfig(n=20, trace=False, **config))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        system = DynamicSystem(SystemConfig(n=N, trace=False, **config))
        size, blocks = traced(before, N)
    finally:
        tracemalloc.stop()
    return system, size, blocks


def traced(snapshot_before, count):
    """Bytes and blocks per item allocated since ``snapshot_before``."""
    stats = tracemalloc.take_snapshot().compare_to(snapshot_before, "filename")
    return (
        sum(stat.size_diff for stat in stats) / count,
        sum(stat.count_diff for stat in stats) / count,
    )


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
@pytest.mark.parametrize("protocol", sorted(BUDGET))
def test_a_seed_stays_inside_its_budget(protocol):
    max_bytes, max_blocks = BUDGET[protocol]
    system, size, blocks = traced_build(protocol=protocol)
    assert len(system.membership) == N
    assert size <= max_bytes, f"{protocol}: {size:.0f} B per seed"
    # + 0.1: the population's own containers (three membership dicts,
    # the pid list) are a handful of blocks spread over N seeds.
    assert blocks <= max_blocks + 0.1, f"{protocol}: {blocks:.2f} blocks per seed"


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_a_message_costs_its_queue_tuple_and_leaves_nothing_behind():
    system = DynamicSystem(SystemConfig(n=20, trace=False))
    send = system.network.send_payload
    sender, dest = system.seed_pids[:2]
    reply = Reply(sender, "v", 0)  # one shared payload: not the message's cost
    send(sender, dest, reply)
    system.run_for(2 * system.config.delta)  # warm: dispatch cache, join phase
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(MESSAGES):
            send(sender, dest, reply)
        in_flight = traced(before, MESSAGES)
        assert system.engine.pending_count >= MESSAGES
        delivered = system.network.delivered_count
        system.run_for(2 * system.config.delta)
        assert system.network.delivered_count == delivered + MESSAGES
        retained = traced(before, MESSAGES)
    finally:
        tracemalloc.stop()
    max_bytes, max_blocks = MESSAGE_BUDGET
    assert in_flight[0] <= max_bytes, f"{in_flight[0]:.0f} B per message in flight"
    # + 0.01: the calendar's bucket lists, a few hundred over the batch.
    assert in_flight[1] <= max_blocks + 0.01, f"{in_flight[1]:.2f} blocks in flight"
    # Nothing per message: what is left is CPython's own free list of
    # dead 8-tuples, capped at 2000 however long the run (0.11 blocks
    # a message at this batch size; a per-network free list read 1.11).
    assert retained[1] <= 0.12, f"{retained[1]:.3f} blocks retained per delivery"
    assert retained[0] <= 12.0, f"{retained[0]:.1f} B retained per delivery"


@pytest.mark.parametrize("protocol", sorted(BUDGET))
def test_no_seed_carries_a_dict(protocol):
    system = DynamicSystem(SystemConfig(n=5, trace=False, protocol=protocol))
    for pid in system.seed_pids:
        node = system.node(pid)
        assert not hasattr(node, "__dict__")
        assert not hasattr(node.space, "__dict__")
        assert not hasattr(system.membership.record(pid), "__dict__")


def test_an_untouched_seed_owns_no_operation_or_join_state():
    system = DynamicSystem(SystemConfig(n=5, trace=False))
    first, second = (system.node(pid) for pid in system.seed_pids[:2])
    assert first._runners is second._runners and len(first._runners) == 0
    assert first._watchers is second._watchers and len(first._watchers) == 0
    assert first._join_phase is None and first._reply_to is None


@pytest.mark.parametrize(
    "protocol, trackers",
    [("es", ("_reads", "_acks")), ("abd", ("_queries", "_writebacks", "_writes"))],
)
def test_an_untouched_quorum_seed_owns_no_round_or_pending_state(protocol, trackers):
    system = DynamicSystem(SystemConfig(n=5, trace=False, protocol=protocol))
    node = system.node(system.seed_pids[0])
    empty = sys.getsizeof({})
    for name in trackers:
        tracker = getattr(node, name)
        # The tracker IS its one dict, and an empty one has no table yet.
        assert isinstance(tracker, dict) and len(tracker) == 0
        assert not hasattr(tracker, "__dict__") and type(tracker).__slots__ == ()
        assert sys.getsizeof(tracker) <= empty + 16  # the GC header, if counted
    if protocol == "es":
        assert node._reply_to is None and node._dl_prev is None


def test_a_key_costs_one_dict_entry_not_two():
    single, multi = (
        DynamicSystem(SystemConfig(n=3, trace=False, keys=keys))
        for keys in (1, 16)
    )
    space = multi.node(multi.seed_pids[0]).space
    dicts = [
        getattr(space, name)
        for name in type(space).__slots__
        if isinstance(getattr(space, name), dict)
    ]
    assert len(dicts) == 1 and len(dicts[0]) == 16
    assert len(single.node(single.seed_pids[0]).space._cells) == 1
    # Every key of a freshly seeded node shares the one initial cell.
    assert len({id(cell) for cell in dicts[0].values()}) == 1


def judged_reads(count, checkpoint=lambda: None):
    """Plan, install, drive and judge ``count`` local reads on a small
    sync system; ``checkpoint()`` runs once the plan is installed.
    Returns everything the run keeps alive, and the queue slots the
    install added."""
    system = DynamicSystem(SystemConfig(n=20, trace=False))
    horizon = 100.0
    plan = [ReadOp(time=horizon * (k + 1) / count) for k in range(count)]
    slots = system.engine._occupied_slots()
    driver = WorkloadDriver(system)
    driver.install(plan)
    added = system.engine._occupied_slots() - slots
    checkpoint()
    system.run_until(horizon)
    system.close()
    report = system.check_safety()
    assert report.checked_count == count and report.is_safe
    return (system, plan, driver, report), added


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_a_local_read_costs_its_plan_op_its_handle_and_its_judgement():
    judged_reads(50)  # warm: imports, dispatch caches, the reader stream
    gc.collect()
    planned = []
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        # ``kept`` holds the run alive across the second measurement.
        kept, _ = judged_reads(
            OPERATIONS, lambda: planned.append(traced(before, OPERATIONS))
        )
        judged = traced(before, OPERATIONS)
    finally:
        tracemalloc.stop()
    # + 0.05: the system itself and the lists' over-allocation, a few
    # hundred blocks over the batch.
    (size, blocks), (max_bytes, max_blocks) = planned[0], PLANNED_BUDGET
    assert size <= max_bytes, f"{size:.0f} B per planned read"
    assert blocks <= max_blocks + 0.05, f"{blocks:.2f} blocks per planned read"
    (size, blocks), (max_bytes, max_blocks) = judged, JUDGED_BUDGET
    assert size <= max_bytes, f"{size:.0f} B per judged read"
    assert blocks <= max_blocks + 0.05, f"{blocks:.2f} blocks per judged read"
    assert len(kept[1]) == OPERATIONS


def test_a_plan_holds_one_queue_slot_however_long():
    _, added = judged_reads(OPERATIONS)
    assert added == 1


def test_no_operation_record_carries_a_dict():
    (system, plan, driver, report), _ = judged_reads(10)
    for record in (
        plan[0],
        WriteOp(time=1.0),
        driver.stats.read_handles[0],
        report.judgements[0],
    ):
        assert not hasattr(record, "__dict__"), type(record).__name__
    # A handle nobody waits on shares the one empty callback tuple.
    first, second = driver.stats.read_handles[:2]
    assert first._callbacks is second._callbacks and len(first._callbacks) == 0


#: ``repro.net`` frames entered per delivered message on a clean link.
#: Counted here: 123 frames for 120 deliveries (an ABD write and read at
#: n = 20: one ``fire`` each plus three ``send_round``) and 106 for 101
#: (a sync join at n = 50: one ``fire`` each plus the broadcast's five);
#: with a ``send_payload`` frame per reply and per round destination
#: they read 240 and 156.
NET_FRAMES_PER_DELIVERY = {"abd": 1.03, "sync": 1.06}


def frames_entered(run, watch, *packages) -> tuple[int, dict[str, int]]:
    """Run ``run()`` under ``sys.setprofile``; Python frames entered in
    ``packages``, and the entries of the function ``watch`` by the type
    name of its ``payload`` argument."""
    dirs = tuple(os.path.dirname(package.__file__) + os.sep for package in packages)
    watched = watch.__code__
    entered = [0]
    by_payload: dict[str, int] = {}

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[0] += code.co_filename.startswith(dirs)
            if code is watched:
                name = type(frame.f_locals["payload"]).__name__
                by_payload[name] = by_payload.get(name, 0) + 1

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return entered[0], by_payload


def _abd_write_and_read(system):
    write = system.write("v")
    system.run_for(2 * system.config.delta)
    read = system.read(system.seed_pids[3])
    system.run_for(4 * system.config.delta)
    assert write.done and read.done and read.result == "v"


def _sync_join(system):
    joiner = system.spawn_joiner()
    system.run_for(4 * system.config.delta)
    assert system.node(joiner).is_active


@pytest.mark.parametrize(
    "protocol, n, run", [("abd", 20, _abd_write_and_read), ("sync", 50, _sync_join)]
)
def test_a_clean_message_enters_one_net_frame_and_never_send_payload(protocol, n, run):
    system = DynamicSystem(SystemConfig(n=n, trace=False, protocol=protocol))
    frames, slow = frames_entered(
        lambda: run(system), Network.send_payload, repro.net
    )
    delivered = system.network.delivered_count
    assert delivered >= 2 * n and system.network.sent_count >= n
    assert slow == {}, f"send_payload entered for {slow} on a clean link"
    per_delivery = frames / delivered
    assert per_delivery <= NET_FRAMES_PER_DELIVERY[protocol], (
        f"{frames} repro.net frames for {delivered} deliveries"
    )


#: ``repro.protocols`` + ``repro.core`` frames entered per delivered
#: message.  Counted here: 105 frames for the 58 deliveries of one ES
#: read at n = 20 (20 ``on_esread``, 19 each of ``_reply``, ``on_esreply``
#: and ``on_esack``, 13 ``satisfied`` polls, 15 for the operation itself)
#: and 288 for the 120 of an ABD write + read (one ``on_abd*`` each, 41
#: ``adopt``, 48 ``satisfied``, 19 first ``is_replica`` and 25
#: ``universe`` resolutions); with ``resolve`` / ``is_single`` /
#: ``snapshot`` / ``sequence`` / ``phase`` / ``current_request`` /
#: ``offer`` / ``is_replica`` behind every handler they read 335 and 634.
PROTOCOL_FRAMES_PER_DELIVERY = {"es": 1.90, "abd": 2.52}


def _es_read(system):
    read = system.read(system.seed_pids[3])
    system.run_for(4 * system.config.delta)
    assert read.done and read.result == system.config.initial_value


@pytest.mark.parametrize(
    "protocol, run, per_operation",
    [("es", _es_read, 2.9), ("abd", _abd_write_and_read, 6.0)],
)
def test_a_quorum_message_enters_its_handler_and_no_accessor_chain(
    protocol, run, per_operation
):
    n = 20
    system = DynamicSystem(SystemConfig(n=n, trace=False, protocol=protocol))
    frames, _ = frames_entered(
        lambda: run(system), FaultInjector.on_transmit, repro.protocols, repro.core
    )
    delivered = system.network.delivered_count
    assert delivered >= per_operation * n - 2  # the whole quorum answered
    assert frames / delivered <= PROTOCOL_FRAMES_PER_DELIVERY[protocol], (
        f"{frames} repro.protocols + repro.core frames for {delivered} deliveries"
    )


def test_the_fault_gate_is_entered_only_for_a_class_a_live_fault_names():
    plan = FaultPlan.of(LossFault(probability=0.05, payload_types={"EsAck"}))
    system = DynamicSystem(
        SystemConfig(n=20, trace=False, protocol="es", faults=plan)
    )
    _es_read(system)  # each class's first message is what proves it idle
    assert system.network._p2p_uniform is None  # every send is send_payload
    sent = system.network.sent_count
    _, gated = frames_entered(lambda: _es_read(system), FaultInjector.on_transmit)
    replies = (system.network.sent_count - sent) // 2  # a REPLY, then its ACK
    assert replies >= 18
    # Entered once per EsAck, never for EsRead / EsReply (20 / 19 / 19
    # entries before the injector published its idle classes).
    assert gated == {"EsAck": replies}
