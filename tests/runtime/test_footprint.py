"""The per-process footprint ratchet.

A population's resident cost is ``n`` times what one seed costs, and a
seed that never runs an operation should cost what it *uses*: its
slots (a process is its own presence record) and its pid — its register
space is the population's one, a list of cells each the one initial
cell, addressed through the key tuple's index.  These tests
hold the traced bytes and allocated blocks per seed under a budget (the
measured value + ~10 %, CPython 3.11), and the objects the cyclic
collector tracks per seed to an exact count, so that a change which
re-adds eager per-node state — an empty list, a set, a phase object, a
record beside the process, a ``__dict__`` — fails here, under a name
that says so.

A message, likewise, costs what it carries: in flight it is its queue
tuple (plus the arrival instant and the sequence number the tuple
holds), and once delivered the network keeps nothing of it.  The
per-message ratchet below fails a change that re-adds an object per
send or a free list that pins the run's high-water mark.

An operation costs what it records: planned, it is its plan op and the
instant it fires at (it takes a queue slot only once the clock reaches
its epoch); completed and judged, a local read is that plus its history
row — an instant, an op id, a reader number and a pointer in columns,
no object — and
a judged report keeps its verdicts, not a record per valid read.  The
per-operation ratchets fail a change that re-adds an ``Event`` per
planned op, a handle per local read, a callback list per handle, a
judgement kept per read or a ``__dict__`` on any of them.

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
for a payload class some live fault could touch in a way its loss gate
cannot say (a spike, a partition, a loss confined to a link): a gated
send enters no frame of ``repro.faults`` (the ratchet allows one).  Same
instrument, three more counts.

A synchronous join, too, keeps what it adopts and nothing of its
replies: a single-key REPLY is folded into the join's running max as it
lands, without a ``repro.core`` frame, and the join phase is released at
activation.  One tracemalloc ratchet and one exact frame count.  A
completed ES or ABD read likewise keeps a dict slot per replier its
quorum counted and the running max, nothing per reply: one more
tracemalloc ratchet.

And a large-n broadcast costs what differs per recipient: an in-flight
dense fault-free fan-out holds an 8 B instant and an 8 B recipient slot
per pending arrival, a reply to one of its arrivals its calendar columns
(an 8 B instant, an 8 B sequence number, four pointers), the seeds a
WRITE lands on end up holding one shared cell (no cell per adopter), and
single-key seeds answer an inquiry with one shared REPLY (no payload per
replier).  Four more ratchets.
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
import repro.faults
import repro.net
import repro.protocols
from repro.faults import FaultPlan, LossFault
from repro.faults.injector import FaultInjector
from repro.net.delay import SynchronousDelay
from repro.net.network import Network
from repro.protocols.es_reg import EsAck, EsRead, EsReply
from repro.protocols.sync_reg import Inquiry, Reply, WriteMsg
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.workloads.generators import read_heavy_plan
from repro.workloads.schedule import ReadOp, WorkloadDriver, WriteOp

N = 2000
MESSAGES = 20_000

#: Bytes and allocated blocks per un-drained ``send_payload``.  Measured
#: here (3.11): 168 / 3.0 — the 8-field queue tuple, its instant and its
#: sequence number; a pooled entry object per message read 208 / 4.0.
MESSAGE_BUDGET = (176, 3)

OPERATIONS = 20_000

#: Bytes and allocated blocks per planned local read of a hand-built
#: list plan once installed, and once completed and judged.  Measured
#: here (3.11): 107 / 2.0 — the slotted plan op and its instant, plus an
#: 8 B slot each in the plan, its sorted copy (the installed plan's op
#: column) and the installed plan's ``array('d')`` of instants — and 121 / 2.04: the plan
#: op and the history row (the sorted copy and the instants released);
#: 134 / 2.04 with the row's process, key and value three list slots.
#: With a handle and its op id per read: 256 / 4.03.  One ``Event`` per
#: planned op read 461 / 8.1 installed; a ``__dict__`` per plan op and a
#: callback list per handle, 470 / 7.2 judged; a judgement tuple kept per
#: valid read, 378 / 5.0.
PLANNED_BUDGET = (118, 2)
JUDGED_BUDGET = (133, 2)

#: Bytes per read of a ``read_heavy_plan`` built and installed: the
#: slope between plans of ~20,000 and ~40,000 reads on one system.
#: Measured here (3.11): 15.8 — its 8 B instant in the plan's
#: ``array('d')``, which the engine's series files as it is, and an 8 B
#: ``None`` slot in its op column; 104.9 when the plan was a list of
#: ``ReadOp`` objects (the op's 56 B and its float's 24 B, and a slot each
#: in the plan, its sorted copy and the series' instants).
PLANNED_READ_BYTES = 17

#: Bytes and blocks a complete local read leaves in the history: the
#: slope between runs of 20,000 and 40,000 planned reads, with the plan
#: built before the measurement.  Measured here (3.11): 29.1 / 0.004 — an
#: 8 B instant, an 8 B op id and a 4 B reader number in the row's
#: ``array('d')`` / ``array('q')`` / ``array('I')`` columns and its
#: value's 8 B pointer in a list, plus the columns' growth slack (the
#: key column stays empty: no key was named); 42.4 / 0.002 with the
#: process, key and value three pointers in one flat list; 166.0 / 2.0
#: with an ``OperationHandle``, its op id and two list slots per read.
RETAINED_READ_BUDGET = (32, 0.05)

#: protocol -> (bytes per seed, allocated blocks per seed).  Measured
#: here (n = 2000, 3.11): 273 / 2.05, 561 / 6.05, 488 / 5.05; with a
#: ``RegisterSpace`` of its own per seed (a list and its slot array) and
#: sync's two reply-cache slots: 385 / 4.05, 657 / 8.05, 584 / 7.05;
#: with a ``RegisterSpace`` wrapping a one-entry cell dict and the delay /
#: quorum copied into each node: 585 / 5.05, 849 / 9.05, 769 / 8.05;
#: with a ``PresenceRecord`` per process, a cell tuple per seed and the inquiry
#: wait / quorum resolved per node: 749 / 8.1, 1011 / 12.0, 909 / 10.1;
#: with a six-slot ``QuorumPhase``: 757 / 8.1, 1035 / 12.0, 917 / 10.1;
#: with two dicts a tracker and ES's two pending sets built eagerly: 773
#: / 8.1, 1707 / 18.0, 1283 / 16.0; before per-process state went lazy
#: and slotted: 1563 / 17.1, 2147 / 24.1, 1667 / 21.1.
BUDGET = {
    "sync": (313, 2),
    "es": (629, 6),
    "abd": (549, 5),
}

#: protocol -> objects the cyclic collector tracks per seed, as built
#: (before any collection untracks an atomic-only dict): the node, plus
#: the ES join phase and two trackers / the three ABD trackers — the
#: ``RegisterSpace`` is the population's one.  The drive's first full
#: collection walks every one of them.  With a space per seed: 2, 5, 5;
#: with a cell dict beside it: 3, 6, 6; with a ``PresenceRecord`` and a
#: cell tuple per seed as well: 5, 8, 8.
GC_TRACKED_PER_SEED = {"sync": 1, "es": 4, "abd": 4}


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
    sys.implementation.name != "cpython",
    reason="GC tracking is CPython's",
)
@pytest.mark.parametrize("protocol", sorted(GC_TRACKED_PER_SEED))
def test_a_seed_is_its_gc_tracked_objects_and_no_more(protocol):
    DynamicSystem(SystemConfig(n=20, trace=False, protocol=protocol))  # warm
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        system = DynamicSystem(SystemConfig(n=N, trace=False, protocol=protocol))
        per_seed = (len(gc.get_objects()) - before) / N
    finally:
        if enabled:
            gc.enable()
    assert len(system.membership) == N
    # Exact both ways: + 0.05 is the system's own objects (~40) spread
    # over N seeds, so one object more per seed fails, and one fewer
    # fails until the ratchet is tightened.
    expected = GC_TRACKED_PER_SEED[protocol]
    assert expected <= per_seed <= expected + 0.05, (
        f"{protocol}: {per_seed:.3f} GC-tracked objects per seed"
    )


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_a_message_costs_its_queue_tuple_and_leaves_nothing_behind():
    system = DynamicSystem(SystemConfig(n=20, trace=False))
    send = system.network.send_payload
    sender, dest = system.seed_pids[:2]
    reply = Reply("v", 0)  # one shared payload: not the message's cost
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
        assert not hasattr(system.membership.process(pid), "__dict__")


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


def test_a_key_costs_one_list_slot():
    system = DynamicSystem(SystemConfig(n=3, trace=False, keys=16))
    node, sibling, third = (system.node(pid) for pid in system.seed_pids)
    # The seeds share one space, and it IS its cells: one slot per key,
    # every slot holding the population's one initial cell.
    space = node.space
    assert sibling.space is space and third.space is space
    assert len(space) == 16
    assert all(cell is space[0] for cell in space)
    # The key -> position index is built once, with the seed space.
    shared = space._index
    assert len(shared) == 16
    # A successor that admits nothing probes the same index, and a
    # joiner's blank space of the same keys is built with its own.
    assert space.adopt("k3", "v", 5)._index is shared
    joiner = system.node(system.spawn_joiner())
    assert joiner.space._index == shared and joiner.space._index is not shared
    assert system.node(system.spawn_joiner()).space is joiner.space
    # Admitting a key moves the admitting node to a successor with its
    # own index; the shared space and its index stay as they were.
    node.space = space.adopt("moved", "v", 3)
    assert node.space._index is not shared and node.space._index["moved"] == 16
    assert len(space) == 16 and "moved" not in shared
    assert sibling.space is space and third.space is space
    # A sibling that adopts the same moves to the same successor.
    sibling.space = sibling.space.adopt("moved", "v", 3)
    assert sibling.space is node.space


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
def test_a_local_read_costs_its_plan_op_and_its_row():
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


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_a_planned_read_costs_its_instant_and_a_slot():
    system = DynamicSystem(SystemConfig(n=20, trace=False))

    def planned(read_rate):
        """Bytes and length of one plan, built and installed."""
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plan = read_heavy_plan(
                start=1.0,
                end=100.0,
                write_period=10.0,
                read_rate=read_rate,
                rng=system.rng.stream(f"plan.{read_rate}"),
            )
            WorkloadDriver(system).install(plan)
            return tracemalloc.get_traced_memory()[0] - base, len(plan)
        finally:
            tracemalloc.stop()

    (small, small_ops), (large, large_ops) = planned(200.0), planned(400.0)
    assert large_ops > 1.9 * small_ops > 35_000
    per_read = (large - small) / (large_ops - small_ops)
    assert per_read <= PLANNED_READ_BYTES, f"{per_read:.1f} B per planned read"


def test_a_plan_holds_no_queue_slot_before_its_epoch():
    """The plan is one vector: its first op lies beyond the active
    epoch, so however long, the install takes no queue slot yet."""
    _, added = judged_reads(OPERATIONS)
    assert added == 0


def test_no_operation_record_carries_a_dict():
    (system, plan, driver, report), _ = judged_reads(10)
    for record in (
        plan[0],
        WriteOp(time=1.0),
        system.history.reads()[0],
        report.judgements[0],
    ):
        assert not hasattr(record, "__dict__"), type(record).__name__
    # A planned read is a row: no handle, so no callback tuple, is kept.
    assert not system.history._operations and len(system.history._times) == 10
    # A handle nobody waits on shares the one empty callback tuple.
    first = system.write()
    second = system.read(system.seed_pids[1])
    assert first._callbacks is second._callbacks and len(first._callbacks) == 0


def _retained_reads(count):
    """Bytes and blocks ``count`` planned local reads leave behind once
    driven: the plan is built before the measurement starts."""
    system = DynamicSystem(SystemConfig(n=20, trace=False))
    horizon = 100.0
    plan = [ReadOp(time=horizon * (k + 1) / count) for k in range(count)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        WorkloadDriver(system).install(plan)
        system.run_until(horizon)
        size, blocks = traced(before, 1)
    finally:
        tracemalloc.stop()
    assert len(system.history) == len(system.history._times) == count
    assert not system.history._keys  # an unkeyed row has no key slot
    return size, blocks


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_a_retained_complete_read_costs_its_row():
    _retained_reads(50)  # warm: imports, dispatch caches, the reader stream
    size, blocks = _retained_reads(OPERATIONS)
    size_2n, blocks_2n = _retained_reads(2 * OPERATIONS)
    # The slope: what the system itself costs cancels.
    byte_slope = (size_2n - size) / OPERATIONS
    block_slope = (blocks_2n - blocks) / OPERATIONS
    max_bytes, max_blocks = RETAINED_READ_BUDGET
    assert byte_slope <= max_bytes, f"{byte_slope:.2f} B per retained read"
    assert block_slope <= max_blocks, f"{block_slope:.4f} blocks per retained read"


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
#: ``universe`` resolutions); with ``resolve`` / ``is_single`` (since
#: deleted) / ``snapshot`` / ``sequence`` / ``phase`` /
#: ``current_request`` / ``offer`` / ``is_replica`` behind every handler
#: they read 335 and 634.
PROTOCOL_FRAMES_PER_DELIVERY = {"es": 1.90, "abd": 2.52}


def _es_read(system):
    read = system.read(system.seed_pids[3])
    system.run_for(4 * system.config.delta)
    assert read.done and read.result == system.history.initial_value


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


def _es_read_under_a_loss_on_es_ack():
    plan = FaultPlan.of(LossFault(probability=0.05, payload_types={"EsAck"}))
    system = DynamicSystem(
        SystemConfig(n=20, trace=False, protocol="es", faults=plan)
    )
    _es_read(system)  # each class's first message is what gates it
    assert system.faults._gates == {EsRead: (), EsReply: (), EsAck: (0.05,)}
    return system


def test_the_fault_gate_is_entered_only_for_a_class_a_live_fault_names():
    system = _es_read_under_a_loss_on_es_ack()
    assert system.network._p2p_uniform is None  # every send is send_payload
    sent = system.network.sent_count
    drawn = system.faults._rng.getstate()
    _, gated = frames_entered(lambda: _es_read(system), FaultInjector.on_transmit)
    replies = (system.network.sent_count - sent) // 2  # a REPLY, then its ACK
    assert replies >= 18
    # Entered for none of EsRead / EsReply / EsAck: the loss names
    # EsAck on every link, so its gate is that loss's probability and
    # each ACK draws it at the send site (20 / 19 / 19 entries before
    # the injector published idle classes, 0 / 0 / 19 before it
    # published gates).
    assert gated == {}
    assert system.faults._rng.getstate() != drawn  # the ACKs did draw


def test_a_gated_faulted_send_enters_at_most_one_faults_frame():
    """The network reads the gate and draws its loss itself: one frame
    is allowed for a gate lookup, never ``on_transmit`` and its
    ``_on_link``."""
    system = _es_read_under_a_loss_on_es_ack()
    sender, dest = system.seed_pids[:2]
    ack = EsAck(sender, 0, None)
    frames, _ = frames_entered(
        lambda: system.network.send_payload(sender, dest, ack),
        FaultInjector.on_transmit,
        repro.faults,
    )
    assert frames <= 1


#: Bytes and blocks a completed sync join at n = 200 retains per
#: delivered REPLY.  Measured here (3.11): 28 / 0.45 — the joiner, its
#: handle and its adoption spread over 200 replies, nothing per reply;
#: with a ``((key, value, sn),)`` offer kept per reply in a phase kept
#: for the run, 174 / 2.48.
JOIN_RETAINED_BUDGET = (40, 1)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_a_completed_sync_join_keeps_nothing_of_its_replies():
    system = DynamicSystem(SystemConfig(n=200, trace=False))
    _sync_join(system)  # warm: every seed builds its one cached reply
    sent = system.network.sent_count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        _sync_join(system)
        gc.collect()
        replies = system.network.sent_count - sent  # a join sends only these
        size, blocks = traced(before, replies)
    finally:
        tracemalloc.stop()
    assert replies == 201  # every seed and the first joiner answered
    max_bytes, max_blocks = JOIN_RETAINED_BUDGET
    assert size <= max_bytes, f"{size:.0f} B retained per delivered REPLY"
    assert blocks <= max_blocks, f"{blocks:.2f} blocks retained per delivered REPLY"


#: protocol -> (bytes, blocks) a completed read at n = 200 retains per
#: reply delivered to its reader: the ES read's n − 1 REPLYs, the ABD
#: read's n query replies and n write-back ACKs.  Measured here (3.11):
#: es 56 / 0.45, abd 34 / 0.23 — the handle, the reader's phases and
#: one dict slot per replier counted before the quorum, nothing per
#: reply after it; with a ``((key, value, sn),)`` offer kept per reply,
#: after the quorum too, 184 / 2.45 and 106 / 1.23.
READ_RETAINED_BUDGET = {"es": (64, 0.5), "abd": (40, 0.3)}


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
@pytest.mark.parametrize("protocol", sorted(READ_RETAINED_BUDGET))
def test_a_completed_quorum_read_keeps_nothing_of_its_replies(protocol):
    n = 200
    system = DynamicSystem(SystemConfig(n=n, trace=False, protocol=protocol))

    def read(pid):
        handle = system.read(pid)
        system.run_for(4 * system.config.delta)
        assert handle.done and handle.result == system.history.initial_value

    # ES: n READ deliveries (the reader's own echo among them), n − 1
    # REPLYs and their ACKs; ABD: n of each of its four messages.
    replies, messages = (n - 1, 3 * n - 2) if protocol == "es" else (2 * n, 4 * n)
    read(system.seed_pids[3])  # warm: dispatch caches, every replier's reply
    delivered = system.network.delivered_count
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        read(system.seed_pids[4])  # a reader whose rounds are new
        gc.collect()
        size, blocks = traced(before, replies)
    finally:
        tracemalloc.stop()
    assert system.network.delivered_count - delivered == messages
    max_bytes, max_blocks = READ_RETAINED_BUDGET[protocol]
    assert size <= max_bytes, f"{protocol}: {size:.0f} B retained per reply"
    assert blocks <= max_blocks, f"{protocol}: {blocks:.2f} blocks retained per reply"


def test_a_single_key_reply_enters_no_core_frame():
    """Line 17 reads the reply's key off the space's slot: no
    ``RegisterSpace.keys`` property, no ``repro.core`` call at all,
    whether the reply lands in a phase or starts one."""
    system = DynamicSystem(SystemConfig(n=20, trace=False))
    sender, collecting, fresh = system.seed_pids[:3]
    send = system.network.send_payload
    reply = Reply("v", 0)
    send(sender, collecting, reply)
    system.run_for(2 * system.config.delta)  # warm: dispatch cache, the phase
    delivered = system.network.delivered_count

    def deliver():
        send(sender, collecting, reply)  # into the phase it has
        send(sender, fresh, reply)  # a stray reply: the phase is built
        system.run_for(2 * system.config.delta)

    frames, _ = frames_entered(deliver, Network.send_payload, repro.core)
    assert system.network.delivered_count == delivered + 2
    assert frames == 0, f"{frames} repro.core frames for two REPLY deliveries"


def _traced_outside_tracemalloc(before, count):
    """:func:`traced` without the snapshots' own allocations — a
    kilobyte that, at a few bytes per item, the budgets below would
    feel."""
    drop = [tracemalloc.Filter(False, tracemalloc.__file__)]
    stats = (
        tracemalloc.take_snapshot()
        .filter_traces(drop)
        .compare_to(before.filter_traces(drop), "filename")
    )
    return (
        sum(stat.size_diff for stat in stats) / count,
        sum(stat.count_diff for stat in stats) / count,
    )


#: Bytes and blocks an in-flight dense fault-free fan-out holds per pending
#: arrival: the slope between fan-outs to n = 2000 and n = 4000 seeds,
#: so a constant residue (what CPython's float free list held when the
#: fan-out began, the vector's own objects) cancels.  Measured here
#: (3.11): 16.0 / 0.0 — the arrival's 8 B instant in the fan-out
#: vector's ``array('d')`` and its 8 B slot in the vector's recipient
#: list, its entry built only when the clock reaches its epoch; the
#: residue is 872 B / 17 blocks.  With a float object per instant in a
#: list, 39.1 / 0.96.
FANOUT_BUDGET = (17, 0.01)


def _in_flight_fanout(n):
    """Bytes and blocks one WRITE fan-out to an n-seed system holds in
    flight, and the queue slots it added before its first epoch."""
    system = DynamicSystem(SystemConfig(n=n, trace=False))
    sender = system.seed_pids[0]
    payload = WriteMsg("v", 0)  # sn 0: its deliveries adopt nothing
    gc.collect()
    tracemalloc.start()
    try:
        # Warm, and drained, under the tracer: dispatch caches and the
        # calendar's buckets.
        system.broadcast.broadcast(sender, payload)
        system.run_for(2 * system.config.delta)
        slots = system.engine._occupied_slots()
        pending = system.engine.pending_count
        before = tracemalloc.take_snapshot()
        system.broadcast.broadcast(sender, payload)
        size, blocks = _traced_outside_tracemalloc(before, 1)
    finally:
        tracemalloc.stop()
    assert system.engine.pending_count == pending + n
    return size, blocks, system.engine._occupied_slots() - slots


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_an_in_flight_fanout_costs_16_bytes_per_arrival():
    size, blocks, slots = _in_flight_fanout(N)
    size_2n, blocks_2n, slots_2n = _in_flight_fanout(2 * N)
    # Each fan-out is one vector: no arrival takes a queue slot before
    # the clock reaches its epoch.
    assert slots == slots_2n == 0
    byte_slope = (size_2n - size) / N
    block_slope = (blocks_2n - blocks) / N
    max_bytes, max_blocks = FANOUT_BUDGET
    assert byte_slope <= max_bytes, f"{byte_slope:.2f} B per arrival in flight"
    assert block_slope <= max_blocks, f"{block_slope:.4f} blocks per arrival in flight"


#: Bytes and blocks an in-flight reply to a dense fan-out's arrival holds:
#: the slope between INQUIRY fan-outs to n = 2000 and n = 4000 seeds,
#: every seed's REPLY in flight at once.  Measured here (3.11): 51.5 /
#: 0.0 — its 8 B instant and 8 B sequence number in the epoch's
#: ``array('d')`` / ``array('q')`` columns and four 8 B pointers in its
#: pointer list, plus the three growing buffers' slack; 168.3 / 3.0 with
#: a queue tuple, a float and an int per reply.
REPLY_BUDGET = (56, 0.01)


def _in_flight_replies(n):
    """Bytes and blocks the replies to one INQUIRY fan-out to an n-seed
    system hold in flight, and how many are pending.  A zero-span delay
    puts every arrival at ``start + delta`` and every reply at ``start +
    2 delta``; a timer between them retires the arrivals' epoch."""
    delta = 5.0
    system = DynamicSystem(SystemConfig(
        n=n, trace=False, delta=delta,
        delay=SynchronousDelay(delta=delta, min_delay=delta),
    ))
    engine = system.engine
    sender = system.seed_pids[0]
    inquiry = Inquiry("p-joiner")  # every seed answers the broadcaster
    gc.collect()
    tracemalloc.start()
    try:
        # Warm, and drained, under the tracer: dispatch caches and the
        # calendar's buckets.
        system.broadcast.broadcast(sender, inquiry)
        system.run_for(3 * delta)
        pending = engine.pending_count
        start = engine.now
        before = tracemalloc.take_snapshot()
        system.broadcast.broadcast(sender, inquiry)
        engine.schedule_at(start + 1.5 * delta, int)
        engine.run_until(start + 1.5 * delta)
        size, blocks = _traced_outside_tracemalloc(before, 1)
    finally:
        tracemalloc.stop()
    assert len(engine._fan_ins) == 1  # the replies are filed, not pushed
    return size, blocks, engine.pending_count - pending


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_an_in_flight_reply_to_a_dense_fanout_costs_its_columns():
    size, blocks, replies = _in_flight_replies(N)
    size_2n, blocks_2n, replies_2n = _in_flight_replies(2 * N)
    assert (replies, replies_2n) == (N, 2 * N)
    byte_slope = (size_2n - size) / N
    block_slope = (blocks_2n - blocks) / N
    max_bytes, max_blocks = REPLY_BUDGET
    assert byte_slope <= max_bytes, f"{byte_slope:.2f} B per reply in flight"
    assert block_slope <= max_blocks, f"{block_slope:.4f} blocks per reply in flight"


#: Bytes and blocks a WRITE landing on n = 2000 seeds leaves behind per
#: seed.  Measured here (3.11): 2.1 / 0.03 — the write's handle and
#: history record spread over the seeds, nothing per seed (the seeds
#: move to one successor space); with a cell tuple built per adopter,
#: 57.7 / 1.03.
ADOPTED_BUDGET = (4, 0.05)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the byte budget is CPython 3.11's object layout",
)
def test_the_seeds_a_write_lands_on_share_one_cell():
    warm = DynamicSystem(SystemConfig(n=20, trace=False))
    warm.write()  # dispatch caches, the write's code paths
    warm.run_for(2 * warm.config.delta)
    system = DynamicSystem(SystemConfig(n=N, trace=False))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        write = system.write()
        system.run_for(2 * system.config.delta)
        gc.collect()
        size, blocks = _traced_outside_tracemalloc(before, N)
    finally:
        tracemalloc.stop()
    assert write.done
    nodes = [system.node(pid) for pid in system.seed_pids]
    space = nodes[0].space
    cell = space[0]
    assert cell == (write.argument, 1)
    # The writer's installed space and cell included: one object of
    # each for every seed.
    assert all(node.space is space for node in nodes)
    assert all(node.space[0] is cell for node in nodes)
    max_bytes, max_blocks = ADOPTED_BUDGET
    assert size <= max_bytes, f"{size:.2f} B retained per adopting seed"
    assert blocks <= max_blocks, f"{blocks:.4f} blocks retained per adopting seed"


@pytest.mark.parametrize("written", [False, True], ids=["initial", "after-a-write"])
def test_single_key_seeds_answer_an_inquiry_with_one_reply(written):
    """n = 2000 seeds answer one inquiry with one REPLY object between
    them (2000 with a REPLY built per replier) — whether their cell is
    the initial one or the one a WRITE left them (the writer's own
    installed cell included).  Counted by identity, not traced: the
    replies are 4-tuples, which CPython's per-size free list (2000
    deep) can hand out without a traced allocation."""
    system = DynamicSystem(SystemConfig(n=N, trace=False))
    if written:
        system.write()
        system.run_for(2 * system.config.delta)
    inquiry = Inquiry("p-joiner")
    nodes = [system.node(pid) for pid in system.seed_pids]
    # The shared space keeps what its nodes answered, so the ids stay
    # distinct.
    replies = {id(node.on_inquiry(inquiry.sender, inquiry)) for node in nodes}
    assert len(replies) == 1, f"{len(replies)} REPLY objects for {N} seeds"
    assert tuple(nodes[0].space.reply) == (*nodes[0].space[0], None)
