"""Lazy per-process state is invisible.

A node's join phase, its ``reply_to`` set and its runner / watcher
lists are created at first use (see ``SimProcess`` and
``SynchronousRegisterNode``).  These tests walk the first uses that no
benchmark workload reaches — and the departures that skip them — on
both delivery paths: ``trace=False`` dispatches inline at the fire
sites, ``trace=True`` goes through ``_fire_checked``.
"""

from __future__ import annotations

import pytest

from repro.protocols.es_reg import EsDlPrev
from repro.protocols.sync_reg import Inquiry, Reply
from repro.sim.operations import WaitUntil
from repro.sim.process import SimProcess
from tests.conftest import make_system

DELTA = 5.0

both_planes = pytest.mark.parametrize("trace", [False, True], ids=["wave", "on_reply"])


class TestAReplyNobodyAskedFor:
    @both_planes
    def test_it_is_recorded_and_harmless(self, trace):
        system = make_system(trace=trace)
        sender, target = system.seed_pids[1], system.seed_pids[2]
        node = system.node(target)
        assert node._join_phase is None  # a seed never inquired
        system.network.send_payload(sender, target, Reply("stale", 7))
        system.run_for(2 * DELTA)
        assert system.network.delivered_count == 1
        # Line 17 folds a single-key reply into the phase's running max:
        # the adoption line 07 would make is the stray reply's.
        assert node._join_phase.best_per_key() == {None: ("stale", 7)}
        # Line 17 only collects; nothing adopts outside a join.
        assert node.is_active and not node._join_phase.active
        assert (node.register_value, node.sequence_number) == ("v0", 0)

    @both_planes
    def test_the_node_still_serves_a_join_afterwards(self, trace):
        system = make_system(trace=trace)
        sender = system.seed_pids[1]
        for target in system.seed_pids[2:]:
            system.network.send_payload(sender, target, Reply("stale", 7))
        system.run_for(2 * DELTA)
        joiner = system.spawn_joiner()
        system.run_for(3 * DELTA + 0.1)
        node = system.node(joiner)
        assert node.is_active
        assert (node.register_value, node.sequence_number) == ("v0", 0)
        # Every seed answered the inquiry, the stray replies' targets
        # included: the one reply of the space they share is built.
        assert all(
            system.node(pid).space.reply is not None for pid in system.seed_pids
        )
        # Lines 10-11: the consumed join state is released at activation.
        assert node._join_phase is None and node._reply_to is None


class TestAListeningNodeParksAnInquiry:
    @both_planes
    def test_parked_while_listening_answered_at_activation(self, trace):
        system = make_system(trace=trace)
        first, second = system.spawn_joiner(), system.spawn_joiner()
        nodes = [system.node(first), system.node(second)]
        assert [node._reply_to for node in nodes] == [None, None]
        # Both inquire at δ and are still listening when the other's
        # inquiry arrives (≤ 2δ): each parks exactly the other.
        system.run_for(2 * DELTA + 0.1)
        assert [node._reply_to for node in nodes] == [{second}, {first}]
        system.run_for(2 * DELTA)
        assert all(node.is_active for node in nodes)
        assert [node._reply_to for node in nodes] == [None, None]
        # Line 11: the flush at activation reached the other joiner
        # late, after its own adoption released its join phase: it is
        # recorded all the same, in a fresh phase of its own.
        for node, flusher in zip(nodes, (second, first)):
            assert node._join_phase.best_per_key() == {None: ("v0", 0)}
            assert node._join_phase._lead[1] == flusher
            assert (node.register_value, node.sequence_number) == ("v0", 0)


class TestDepartures:
    @pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
    def test_a_node_that_never_ran_an_operation(self, protocol):
        system = make_system(protocol=protocol, n=11, trace=False)
        victim, neighbour = system.seed_pids[3], system.seed_pids[4]
        node = system.node(victim)
        system.leave(victim)
        assert not node.present
        assert len(node._runners) == 0 and len(node._watchers) == 0
        # What it never owned is still the shared empty, not a copy.
        assert node._runners is system.node(neighbour)._runners
        node.depart()  # idempotent
        system.run_for(4 * DELTA)

    def test_a_departing_sync_node_leaves_its_states_reply(self):
        """A REPLY belongs to the register state, not to a node: a node
        that leaves keeps it on the state, and a node still in the state
        answers with that very payload, built once."""
        system = make_system(trace=False)
        victim, neighbour = (system.node(pid) for pid in system.seed_pids[3:5])
        inquiry = Inquiry("p-other")
        answered = neighbour.on_inquiry(inquiry.sender, inquiry)
        assert victim.space is neighbour.space and victim.space.reply is answered
        system.leave(victim.pid)
        assert neighbour.space.reply is answered
        assert neighbour.on_inquiry(inquiry.sender, inquiry) is answered

    @both_planes
    def test_a_sync_joiner_mid_inquiry(self, trace):
        system = make_system(trace=trace)
        joiner = system.spawn_joiner()
        system.run_for(DELTA + 1.0)  # inquiry out, replies arriving
        node = system.node(joiner)
        assert len(node._runners) == 1 and node._join_phase.active
        handle = node._runners[0].handle
        system.leave(joiner)
        assert handle.abandoned
        assert len(node._runners) == 0 and len(node._watchers) == 0
        # A departed node drops the rounds it can never use again.
        released = (node._join_phase, node._reply_to)
        assert released == (None, None)
        system.run_for(4 * DELTA)  # late replies drop at the presence gate
        assert (node._join_phase, node._reply_to) == released
        assert not node.is_active and system.network.dropped_count > 0

    def test_an_es_joiner_waiting_on_its_quorum(self):
        system = make_system(protocol="es", n=11, trace=False)
        joiner = system.spawn_joiner()
        node = system.node(joiner)
        assert len(node._watchers) == 1  # the join's WaitUntil
        handle = node._runners[0].handle
        system.run_for(0.6 * DELTA)  # some replies in, short of the quorum
        phase = node._join_phase
        assert 0 < len(phase.senders()) < node.ctx.derived["quorum"]
        assert phase._lead is not None
        system.leave(joiner)
        assert handle.abandoned
        assert len(node._runners) == 0 and len(node._watchers) == 0
        # The join phase object stays (a DL_PREV names its request),
        # emptied; the late replies drop at the presence gate.
        assert node._join_phase is phase
        assert (len(phase.senders()), phase._lead) == (0, None)
        system.run_for(4 * DELTA)
        assert not node.is_active and (len(phase.senders()), phase._lead) == (0, None)

    @pytest.mark.parametrize(
        "protocol, trackers",
        [("es", ("_reads", "_acks")), ("abd", ("_queries", "_writebacks", "_writes"))],
    )
    def test_a_quorum_node_drops_its_rounds(self, protocol, trackers):
        system = make_system(protocol=protocol, n=11, trace=False)
        writer = system.writer_pid
        node = system.node(writer)
        write = system.write("v1")
        system.run_for(6 * DELTA)
        read = system.read(writer)
        system.run_for(6 * DELTA)
        assert write.done and read.done and read.result == "v1"
        assert all(getattr(node, name) for name in trackers)  # settled rounds
        if protocol == "es":
            node._park(("p0099", 1, None))
            node.on_esdlprev("p0098", EsDlPrev("p0098", 2))
        system.leave(writer)
        system.run_for(4 * DELTA)
        assert all(len(getattr(node, name)) == 0 for name in trackers)
        if protocol == "es":
            assert node._reply_to is None and node._dl_prev is None
            assert (len(node._join_phase.senders()), node._join_phase._lead) == (0, None)
        # The register copy is not a round: it stays readable.
        assert (node.register_value, node.sequence_number) == ("v1", 1)


class TestWatchersAfterTheFirstFired:
    def test_a_second_wait_until_reuses_the_owned_list(self, engine):
        process = SimProcess("p1", engine)
        flags = {"first": False, "second": False}

        def body():
            yield WaitUntil(lambda: flags["first"])
            yield WaitUntil(lambda: flags["second"])
            return "both"

        shared = process._watchers
        handle = process.run_operation("op", body())
        owned = process._watchers
        assert owned is not shared and len(owned) == 1
        flags["first"] = True
        owned[0].poll()  # first watcher fires, second registers
        assert handle.pending
        assert process._watchers is owned and len(owned) == 1
        flags["second"] = True
        owned[0].poll()
        assert handle.done and handle.result == "both"
        assert process._watchers is owned and owned == []
        # A later operation on the same process starts from the owned,
        # now empty, lists.
        again = process.run_operation("op", body())
        assert again.done and len(process._runners) == 0
