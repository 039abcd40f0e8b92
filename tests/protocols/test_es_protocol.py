"""Tests for the eventually-synchronous protocol (Figures 4, 5 and 6)."""

import pytest

from repro.net.delay import AdversarialDelay, EventuallySynchronousDelay, SynchronousDelay
from repro.protocols.es_reg import (
    EsAck,
    EsDlPrev,
    EsInquiry,
    EsReply,
    EsWrite,
)
from repro.sim.errors import ProcessError
from tests.conftest import make_system

DELTA = 5.0


def make_es(**overrides):
    params = {"protocol": "es", "n": 11}
    params.update(overrides)
    return make_system(**params)


class TestJoin:
    def test_join_completes_with_majority_replies(self):
        system = make_es()
        pid = system.spawn_joiner()
        join = system.history.joins()[0]
        system.run_for(4 * DELTA)
        assert join.done
        assert join.result.value == "v0"
        assert system.node(pid).is_active

    def test_majority_is_floor_n_half_plus_one(self):
        system = make_es(n=11)
        pid = system.spawn_joiner()
        assert system.node(pid).ctx.derived["quorum"] == 6

    def test_join_blocks_until_majority(self):
        """With only a minority of actives reachable, the join waits."""
        system = make_es(n=11)
        # Evict seeds until only 5 actives remain (< majority of 6).
        for pid in list(system.seed_pids[:6]):
            system.leave(pid)
        system.spawn_joiner()
        join = system.history.joins()[0]
        system.run_for(10 * DELTA)
        assert join.pending

    def test_double_join_rejected(self):
        system = make_es()
        pid = system.spawn_joiner()
        system.run_for(4 * DELTA)
        with pytest.raises(ProcessError):
            system.node(pid).join()


class TestRead:
    def test_read_returns_current_value(self):
        system = make_es()
        handle = system.read(system.seed_pids[3])
        system.run_for(4 * DELTA)
        assert handle.done
        assert handle.result == "v0"

    def test_read_pays_a_round_trip(self):
        system = make_es()
        handle = system.read(system.seed_pids[3])
        system.run_for(4 * DELTA)
        assert handle.latency > 0.0

    def test_read_after_write_returns_new_value(self):
        system = make_es()
        write = system.write("v1")
        system.run_for(6 * DELTA)
        assert write.done
        handle = system.read(system.seed_pids[4])
        system.run_for(4 * DELTA)
        assert handle.result == "v1"

    def test_read_before_join_rejected(self):
        system = make_es()
        pid = system.spawn_joiner()
        with pytest.raises(ProcessError):
            system.read(pid)

    def test_stale_reply_guard(self):
        """Figure 4 line 19: replies tagged with an old read_sn are ignored."""
        system = make_es()
        node = system.node(system.seed_pids[2])
        peer = system.seed_pids[3]
        phase = node._reads.open(None, node.ctx.derived["quorum"])
        phase.request = 5  # pretend 5 read rounds happened
        node.on_esreply(peer, EsReply(peer, "junk", 99, read_sn=3))
        assert len(phase.senders()) == 0
        node.on_esreply(peer, EsReply(peer, "fresh", 7, read_sn=5))
        assert phase.senders() == (peer,)
        assert phase.best_for(None) == ("fresh", 7)


    def test_a_reply_after_settle_is_acked_but_not_recorded(self):
        """Line 21 answers every reply that passes line 19; a round
        that met its quorum and settled records none of them."""
        system = make_es()
        node = system.node(system.seed_pids[2])
        peer, late = system.seed_pids[3], system.seed_pids[4]
        phase = node._reads.open(None, node.ctx.derived["quorum"])
        phase.request = 1
        ack = node.on_esreply(peer, EsReply(peer, "v", 3, read_sn=1))
        assert ack == EsAck(node.pid, 3)
        phase.settle()
        ack = node.on_esreply(late, EsReply(late, "newer", 9, read_sn=1))
        assert ack == EsAck(node.pid, 9)
        assert phase.senders() == (peer,)
        assert phase.best_for(None) == ("v", 3)

    def test_a_reoffer_by_the_same_sender_keeps_the_max(self):
        """``replies`` is a set of ⟨j, ⟨v, sn⟩⟩ pairs: line 05 takes the
        max over all of them, and ``j`` is counted once."""
        system = make_es()
        node = system.node(system.seed_pids[2])
        peer = system.seed_pids[3]
        phase = node._reads.open(None, node.ctx.derived["quorum"])
        phase.request = 1
        node.on_esreply(peer, EsReply(peer, "new", 5, read_sn=1))
        node.on_esreply(peer, EsReply(peer, "old", 2, read_sn=1))
        assert len(phase.senders()) == 1
        assert phase.best_for(None) == ("new", 5)
        # The replier is counted; its entry lives on only in the max.
        assert phase._offers == {peer: ()}
        # A tie on sn goes to the greater sender, in either arrival order.
        lesser, greater = system.seed_pids[0], system.seed_pids[9]
        node.on_esreply(greater, EsReply(greater, "tie", 5, read_sn=1))
        node.on_esreply(lesser, EsReply(lesser, "lost", 5, read_sn=1))
        assert len(phase.senders()) == 3
        assert phase.best_for(None) == ("tie", 5)

    def test_a_completed_read_counted_its_quorum_and_no_more(self):
        system = make_es()
        node = system.node(system.seed_pids[3])
        handle = system.read(node.pid)
        system.run_for(4 * DELTA)
        assert handle.done
        phase = node._reads[None]
        assert not phase.active and len(phase.senders()) == node.ctx.derived["quorum"]


class TestWrite:
    def test_write_completes_with_majority_acks(self):
        system = make_es()
        handle = system.write("v1")
        system.run_for(6 * DELTA)
        assert handle.done
        assert handle.result == "ok"

    def test_write_disseminates_to_majority(self):
        system = make_es()
        system.write("v1")
        system.run_for(6 * DELTA)
        holders = sum(
            1
            for pid in system.seed_pids
            if system.node(pid).register_value == "v1"
        )
        assert holders >= system.node(system.seed_pids[0]).ctx.derived["quorum"]

    def test_write_embeds_a_read_first(self):
        """Figure 6 line 01: the write starts with a read."""
        system = make_es()
        node = system.node(system.writer_pid)
        assert None not in node._reads  # no read round yet: request 0
        system.write("v1")
        assert node._reads[None].request == 1

    def test_ack_guard_matches_current_sn(self):
        """Figure 6 lines 09-10: only acks for the current sn count."""
        system = make_es()
        node = system.node(system.seed_pids[1])
        node.space = node.space.install(None, node.space.value(), 4)
        node.on_esack("a", EsAck("a", 4))
        assert None not in node._acks  # nobody collecting: nothing built
        phase = node._acks.open(None, node.ctx.derived["quorum"])
        node.on_esack("a", EsAck("a", 3))
        assert len(phase.senders()) == 0
        node.on_esack("a", EsAck("a", 4))
        assert phase.senders() == ("a",)

    def test_a_completed_write_settles_its_ack_round(self):
        """Figure 6 line 05's wait is the round's end: the ack phase
        settles with the quorum, and a later ACK is not recorded."""
        system = make_es()
        node = system.node(system.writer_pid)
        handle = system.write("v1")
        system.run_for(6 * DELTA)
        assert handle.done
        phase = node._acks[None]
        assert not phase.active and len(phase.senders()) == node.ctx.derived["quorum"]
        node.on_esack("p0099", EsAck("p0099", node.sequence_number))
        assert len(phase.senders()) == node.ctx.derived["quorum"]

    def test_stale_write_does_not_downgrade_but_still_acks(self):
        """Figure 6 lines 06-08: ACK is sent in all cases."""
        system = make_es()
        node = system.node(system.seed_pids[1])
        peer = system.seed_pids[4]
        node.space = node.space.install(None, "newest", 9)
        before = system.network.sent_count
        write = EsWrite(peer, "old", 3)
        assert node.on_eswrite(peer, write) == EsAck(node.pid, 3)
        assert node.register_value == "newest"
        # The ACK is the handler's return value; a delivery sends it.
        node.deliver_payload(peer, write, system.network.send_payload)
        assert system.network.sent_count == before + 1


class TestDlPrev:
    def test_non_active_process_defers_and_promises(self):
        """Figure 4 lines 15-16."""
        system = make_es()
        joiner_pid = system.spawn_joiner()
        joiner = system.node(joiner_pid)
        peer = system.seed_pids[1]
        before = system.network.sent_count
        joiner.on_esinquiry(peer, EsInquiry(peer, 0))
        assert (peer, 0, None) in joiner._reply_to
        assert system.network.sent_count == before + 1  # the DL_PREV

    def test_dl_prev_recorded_by_receiver(self):
        """Figure 4 line 22."""
        system = make_es()
        node = system.node(system.seed_pids[0])
        peer = system.seed_pids[5]
        node.on_esdlprev(peer, EsDlPrev(peer, 4))
        assert (peer, 4, None) in node._dl_prev

    def test_active_reader_promises_too(self):
        """Figure 4 line 14: an active *reading* process sends DL_PREV."""
        system = make_es()
        node = system.node(system.seed_pids[2])
        peer = system.seed_pids[6]
        node._reads.open(None, node.ctx.derived["quorum"])  # a read round is in progress
        before = system.network.sent_count
        node.on_esinquiry(peer, EsInquiry(peer, 0))
        # One REPLY (line 13) + one DL_PREV (line 14).
        assert system.network.sent_count == before + 2

    def test_active_non_reader_only_replies(self):
        system = make_es()
        node = system.node(system.seed_pids[2])
        peer = system.seed_pids[6]
        before = system.network.sent_count
        node.on_esinquiry(peer, EsInquiry(peer, 0))
        assert system.network.sent_count == before + 1

    def test_concurrent_joiners_unblock_each_other(self):
        """The Lemma 5 mechanism, deterministically.

        Make the seeds' replies to the first joiner impossibly slow; the
        second joiner completes via the seeds, then answers the first
        joiner's recorded DL_PREV/reply_to entries, unblocking it.
        """
        victim = {}

        def starve(sender, dest, payload, t):
            if (
                dest == victim.get("pid")
                and isinstance(payload, EsReply)
                and sender not in victim.get("peers", ())
            ):
                return 10_000.0
            return None

        system = make_es(
            delay=AdversarialDelay(starve, fallback=SynchronousDelay(DELTA)),
        )
        victim["pid"] = system.spawn_joiner()
        first = system.history.joins()[0]
        system.run_for(2 * DELTA)
        assert first.pending
        helpers = []
        # Spawn a stream of helpers: each completes its own join via the
        # seeds and, *if* it heard the victim's DL_PREV before finishing,
        # answers the victim at activation.  The paper's Lemma 5 leans
        # on joiners arriving forever; a generous finite stream suffices
        # here (each helper catches the DL_PREV with constant
        # probability, so the victim's majority accumulates).
        majority = system.node(victim["pid"]).ctx.derived["quorum"]
        for _ in range(6 * majority):
            helpers.append(system.spawn_joiner())
            victim["peers"] = tuple(helpers)
            system.run_for(3 * DELTA)
            if first.done:
                break
        system.run_for(6 * DELTA)
        assert first.done, "the DL_PREV chain failed to unblock the victim"


class TestEventualSynchrony:
    def test_post_gst_operations_are_fast(self):
        system = make_es(
            delay=EventuallySynchronousDelay(gst=0.0, delta=DELTA),
        )
        handle = system.read(system.seed_pids[5])
        system.run_for(3 * DELTA)
        assert handle.done
        assert handle.latency <= 2 * DELTA

    def test_run_across_gst_is_safe_and_live(self):
        system = make_es(
            delay=EventuallySynchronousDelay(gst=40.0, delta=DELTA, pre_gst_max=40.0),
            seed=5,
        )
        system.attach_churn(rate=0.004, min_stay=3 * DELTA)
        system.write("v1")
        system.run_until(100.0)
        handle = system.read(system.active_pids()[3])
        system.run_for(8 * DELTA)
        assert handle.done
        assert handle.result == "v1"
        assert system.check_safety().is_safe
        assert system.check_liveness(grace=12 * DELTA).is_live


class TestQuorumOverride:
    """ctx.extra['quorum_size'] powers ablation A6."""

    def test_override_applies(self):
        system = make_es(extra={"quorum_size": 4})
        assert system.node(system.seed_pids[0]).ctx.derived["quorum"] == 4

    # Out of [1, n], and a fraction or a bool: each refused by value,
    # not rounded into a quorum (``True`` would build a sub-majority
    # quorum of 1).
    @pytest.mark.parametrize("bad", [0, 99, 2.7, True, False, float("nan"), "4"])
    def test_invalid_override_rejected(self, bad):
        with pytest.raises(ProcessError, match=f"^quorum_size {bad!r} "):
            make_es(extra={"quorum_size": bad})
