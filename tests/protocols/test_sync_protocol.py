"""Tests for the synchronous protocol (Figures 1 and 2), line by line."""

import pytest

from repro.protocols.common import JoinResult
from repro.protocols.sync_reg import Inquiry, Reply
from repro.sim.errors import ProcessError
from repro.sim.trace import TraceKind
from tests.conftest import make_system

DELTA = 5.0


class TestSeeds:
    def test_seeds_start_active_with_initial_value(self, sync_system):
        for pid in sync_system.seed_pids:
            node = sync_system.node(pid)
            assert node.is_active
            assert node.register_value == "v0"
            assert node.sequence_number == 0

    def test_seed_count_matches_n(self, sync_system):
        assert len(sync_system.seed_pids) == 10


class TestFastRead:
    def test_read_is_instantaneous(self, sync_system):
        handle = sync_system.read(sync_system.seed_pids[1])
        assert handle.done
        assert handle.latency == 0.0
        assert handle.result == "v0"

    def test_read_sends_no_messages(self, sync_system):
        before = sync_system.network.sent_count
        before_bcast = sync_system.broadcast.broadcast_count
        sync_system.read(sync_system.seed_pids[2])
        assert sync_system.network.sent_count == before
        assert sync_system.broadcast.broadcast_count == before_bcast

    def test_read_before_join_completion_rejected(self, sync_system):
        pid = sync_system.spawn_joiner()
        with pytest.raises(ProcessError):
            sync_system.read(pid)


class TestWrite:
    def test_write_latency_is_exactly_delta(self, sync_system):
        handle = sync_system.write("v1")
        sync_system.run_for(2 * DELTA)
        assert handle.done
        assert handle.latency == DELTA

    def test_write_updates_writer_immediately(self, sync_system):
        sync_system.write("v1")
        writer = sync_system.node(sync_system.writer_pid)
        assert writer.register_value == "v1"  # Figure 2 line 01
        assert writer.sequence_number == 1

    def test_write_disseminates_to_all_present_within_delta(self, sync_system):
        sync_system.write("v1")
        sync_system.run_for(DELTA)
        for pid in sync_system.seed_pids:
            assert sync_system.node(pid).register_value == "v1"

    def test_sequence_numbers_increase_per_write(self, sync_system):
        sync_system.write("v1")
        sync_system.run_for(2 * DELTA)
        sync_system.write("v2")
        sync_system.run_for(2 * DELTA)
        writer = sync_system.node(sync_system.writer_pid)
        assert writer.sequence_number == 2

    def test_stale_write_does_not_downgrade(self, sync_system):
        """Figure 2 lines 03-04: only a higher sn updates the copy."""
        from repro.protocols.sync_reg import WriteMsg

        node = sync_system.node(sync_system.seed_pids[3])
        node.on_writemsg("x", WriteMsg("new", 5))
        node.on_writemsg("x", WriteMsg("old", 2))
        assert node.register_value == "new"
        assert node.sequence_number == 5

    def test_write_before_join_completion_rejected(self, sync_system):
        pid = sync_system.spawn_joiner()
        with pytest.raises(ProcessError):
            sync_system.node(pid).write("v9")


class TestJoin:
    def test_quiet_join_takes_exactly_three_delta(self, sync_system):
        """wait(δ) + inquiry wait(2δ) — Figure 1 lines 02 and 06."""
        pid = sync_system.spawn_joiner()
        join = sync_system.history.joins()[0]
        sync_system.run_for(4 * DELTA)
        assert join.done
        assert join.latency == 3 * DELTA
        assert sync_system.node(pid).is_active

    def test_quiet_join_adopts_initial_value(self, sync_system):
        sync_system.spawn_joiner()
        join = sync_system.history.joins()[0]
        sync_system.run_for(4 * DELTA)
        assert join.result == JoinResult("v0", 0)

    def test_join_hearing_a_write_skips_the_inquiry(self, sync_system):
        """Figure 1 line 03: register ≠ ⊥ after the wait — no inquiry."""
        pid = sync_system.spawn_joiner()
        join = sync_system.history.joins()[0]
        # The write is broadcast while the joiner is present: delivery
        # reaches it within δ, inside its line-02 wait.
        sync_system.write("v1")
        before = sync_system.broadcast.broadcast_count
        sync_system.run_for(4 * DELTA)
        assert join.done
        assert join.latency == DELTA  # only the line-02 wait
        assert join.result.value == "v1"
        # No INQUIRY broadcast went out.
        assert sync_system.broadcast.broadcast_count == before

    def test_join_double_invocation_rejected(self, sync_system):
        pid = sync_system.spawn_joiner()
        sync_system.run_for(4 * DELTA)
        with pytest.raises(ProcessError):
            sync_system.node(pid).join()

    def test_joiner_becomes_active_in_membership(self, sync_system):
        pid = sync_system.spawn_joiner()
        assert pid not in sync_system.active_pids()
        sync_system.run_for(4 * DELTA)
        assert pid in sync_system.active_pids()

    def test_join_is_judged_safe_by_the_checker(self, sync_system):
        sync_system.spawn_joiner()
        sync_system.run_for(4 * DELTA)
        assert sync_system.check_safety().is_safe


class TestDeferredReplies:
    """Figure 1 lines 13-16: a non-active process postpones its answer."""

    def test_concurrent_joiners_answer_each_other_after_activation(
        self, sync_system
    ):
        first = sync_system.spawn_joiner()
        sync_system.run_for(DELTA / 2)
        second = sync_system.spawn_joiner()
        sync_system.run_for(6 * DELTA)
        joins = sync_system.history.joins()
        assert all(j.done for j in joins)
        # The first joiner received the second's INQUIRY while not yet
        # active, deferred it (line 15), and answered at activation
        # (line 11): a REPLY from first to second must exist.
        replies = [
            r for r in sync_system.trace
            if r.kind is TraceKind.SEND and r.process == first
            and r.details.get("type") == "Reply" and r.details.get("dest") == second
        ]
        assert replies, "the deferred reply of Figure 1 line 11 never happened"

    def test_active_process_replies_immediately(self, sync_system):
        sync_system.spawn_joiner()
        sync_system.run_for(DELTA + 0.1)  # the inquiry just went out
        sync_system.run_for(3 * DELTA)
        # Every active seed answered with a point-to-point Reply.
        sends = [
            r for r in sync_system.trace
            if r.kind is TraceKind.SEND and r.details.get("type") == "Reply"
        ]
        assert len(sends) >= len(sync_system.seed_pids)


class TestChurnSafety:
    def test_read_heavy_run_under_churn_is_safe_and_live(self):
        system = make_system(n=20, seed=11)
        system.attach_churn(rate=0.02)
        for t in (10.0, 20.0, 30.0):
            system.run_until(t)
            system.write(f"v{int(t)}")
            system.run_until(t + 2 * DELTA)
            for pid in system.active_pids()[:5]:
                system.read(pid)
        system.run_for(4 * DELTA)
        assert system.check_safety().is_safe
        assert system.check_liveness().is_live


class TestFootnote4Optimization:
    """Footnote 4: wait(δ + δ') replaces wait(2δ) when δ' is known."""

    def _dual_system(self, p2p_delta=1.0, **overrides):
        from repro.net.delay import DualBoundSynchronousDelay

        return make_system(
            delay=DualBoundSynchronousDelay(
                broadcast_delta=DELTA, p2p_delta=p2p_delta
            ),
            extra={"p2p_delta": p2p_delta},
            **overrides,
        )

    def test_optimized_join_latency(self):
        system = self._dual_system()
        system.spawn_joiner()
        join = system.history.joins()[0]
        system.run_for(4 * DELTA)
        assert join.done
        assert join.latency == 2 * DELTA + 1.0  # δ (wait) + δ + δ' (inquiry)

    def test_optimized_join_is_safe(self):
        system = self._dual_system(seed=17)
        system.write("v1")
        system.run_for(2 * DELTA)
        system.spawn_joiner()
        system.run_for(4 * DELTA)
        join = system.history.joins()[0]
        assert join.result.value == "v1"
        assert system.check_safety().is_safe

    def test_without_extra_key_the_wait_stays_2delta(self):
        from repro.net.delay import DualBoundSynchronousDelay

        system = make_system(
            delay=DualBoundSynchronousDelay(broadcast_delta=DELTA, p2p_delta=1.0)
        )
        system.spawn_joiner()
        join = system.history.joins()[0]
        system.run_for(4 * DELTA)
        assert join.latency == 3 * DELTA

    @pytest.mark.parametrize("bad", [99.0, True, "1", 1j])
    def test_invalid_p2p_bound_rejected(self, bad):
        """A claimed δ' larger than δ fails fast, at node construction;
        a bool or a non-real is refused by value, not read as δ' = 1."""
        with pytest.raises(ProcessError, match=f"^p2p_delta {bad!r} "):
            make_system(extra={"p2p_delta": bad})


class TestLine17FoldsTheReplies:
    """Line 17 keeps only the running max by ``(sn, sender)`` of the
    single-key replies; line 07 merges it with the stored batched
    replies.  Each case below is one the fold could get wrong: which
    reply wins, what is kept, and what a phase holds when."""

    @staticmethod
    def collecting(keys=1):
        """A node with an open join phase (line 04), fed by hand."""
        system = make_system(n=3, keys=keys, trace=False)
        node = system.node(system.seed_pids[0])
        node._phase().open()
        return node

    def test_a_higher_sn_replaces_the_lead(self):
        node = self.collecting()
        node.on_reply("p2", Reply("old", 1))
        node.on_reply("p1", Reply("new", 2))
        assert node._join_phase.best_per_key() == {None: ("new", 2)}

    def test_a_lower_sn_leaves_the_lead(self):
        node = self.collecting()
        node.on_reply("p1", Reply("new", 2))
        node.on_reply("p2", Reply("old", 1))
        assert node._join_phase.best_per_key() == {None: ("new", 2)}

    @pytest.mark.parametrize(
        "order", [("p1", "p2"), ("p2", "p1")], ids=["greater-last", "greater-first"]
    )
    def test_an_sn_tie_goes_to_the_greater_sender(self, order):
        node = self.collecting()
        for sender in order:
            node.on_reply(sender, Reply(f"from-{sender}", 3))
        assert node._join_phase.best_per_key() == {None: ("from-p2", 3)}
        assert node._join_phase._lead[1] == "p2"

    def test_a_single_key_reply_keeps_no_offer(self):
        node = self.collecting()
        for i in range(5):
            node.on_reply(f"p{i}", Reply("v", i))
        phase = node._join_phase
        assert len(phase.senders()) == 0 and phase.senders() == ()
        assert phase.best_per_key() == {None: ("v", 4)}

    def test_a_batched_reply_is_stored_as_the_repliers_tuple(self):
        node = self.collecting(keys=3)
        entries = (("k0", "a", 1), ("k1", "b", 2), ("k2", "c", 3))
        node.on_reply("p1", Reply("-", -1, entries))
        assert node._join_phase.senders() == ("p1",)
        assert node._join_phase._offers["p1"] is entries
        assert node._join_phase._lead is None

    @pytest.mark.parametrize(
        "batched, winner",
        [("p1", "single"), ("p3", "batched")],
        ids=["lesser-batched-loses", "greater-batched-wins"],
    )
    def test_a_tie_between_lead_and_batch_goes_to_the_greater_sender(
        self, batched, winner
    ):
        node = self.collecting(keys=3)
        node.on_reply("p2", Reply("single", 5))  # folds under "k0"
        entries = (("k0", "batched", 5), ("k1", "b", 0))
        node.on_reply(batched, Reply("-", -1, entries))
        assert node._join_phase.best_per_key()["k0"] == (winner, 5)

    def test_a_batch_with_a_higher_sn_beats_the_lead(self):
        node = self.collecting(keys=3)
        node.on_reply("p9", Reply("single", 5))
        node.on_reply("p1", Reply("-", -1, (("k0", "batched", 6),)))
        assert node._join_phase.best_per_key() == {"k0": ("batched", 6)}

    def test_a_batch_naming_other_keys_leaves_the_lead_its_key(self):
        """Mixed offers: a 1-key replier's reply folds under the
        joiner's first key, a batch supplies the rest."""
        node = self.collecting(keys=3)
        node.on_reply("p1", Reply("single", 2))
        node.on_reply("p2", Reply("-", -1, (("k1", "b", 1), ("k2", "c", 0))))
        assert node._join_phase.best_per_key() == {
            "k0": ("single", 2),
            "k1": ("b", 1),
            "k2": ("c", 0),
        }

    def test_line_04_drops_the_lead(self):
        node = self.collecting()
        node.on_reply("p1", Reply("before", 9))
        node._phase().open()
        assert node._join_phase._lead is None
        assert node._join_phase.best_per_key() == {}
        node.on_reply("p2", Reply("after", 1))
        assert node._join_phase.best_per_key() == {None: ("after", 1)}

    def test_a_stray_reply_starts_a_closed_phase(self):
        system = make_system(n=3, trace=False)
        node = system.node(system.seed_pids[1])
        assert node._join_phase is None
        node.on_reply("p1", Reply("stray", 4))
        assert not node._join_phase.active
        assert node._join_phase.best_per_key() == {None: ("stray", 4)}


class TestTheJoinAdoptsTheFold:
    """Lines 07-08 end to end: what the joiner adopts from its seeds'
    replies, and what it keeps once active."""

    def test_the_joiner_adopts_the_greatest_sn(self, sync_system):
        ahead = sync_system.node(sync_system.seed_pids[3])
        ahead.space = ahead.space.adopt(None, "ahead", 4)
        pid = sync_system.spawn_joiner()
        sync_system.run_for(4 * DELTA)
        node = sync_system.node(pid)
        assert (node.register_value, node.sequence_number) == ("ahead", 4)

    def test_an_sn_tie_across_seeds_adopts_the_greatest_senders(self, sync_system):
        lesser, greater = map(sync_system.node, sorted(sync_system.seed_pids[1:3]))
        lesser.space = lesser.space.adopt(None, "lesser", 2)
        greater.space = greater.space.adopt(None, "greater", 2)
        pid = sync_system.spawn_joiner()
        sync_system.run_for(4 * DELTA)
        assert sync_system.node(pid).register_value == "greater"

    def test_a_keyed_join_adopts_every_keys_max(self):
        system = make_system(keys=3)
        for index, key, value, sequence in ((2, "k1", "one", 3), (5, "k2", "two", 7)):
            seed = system.node(system.seed_pids[index])
            seed.space = seed.space.adopt(key, value, sequence)
        pid = system.spawn_joiner()
        system.run_for(4 * DELTA)
        node = system.node(pid)
        assert node.is_active and node._join_phase is None
        assert node.space.snapshot("k1") == ("one", 3)
        assert node.space.snapshot("k2") == ("two", 7)
        assert node.space.snapshot("k0") == system.node(
            system.seed_pids[0]
        ).space.snapshot("k0")

    def test_a_reply_after_activation_is_recorded_and_adopts_nothing(
        self, sync_system
    ):
        pid = sync_system.spawn_joiner()
        sync_system.run_for(4 * DELTA)
        node = sync_system.node(pid)
        assert node._join_phase is None
        sender = sync_system.seed_pids[1]
        sync_system.network.send_payload(sender, pid, Reply("late", 9))
        sync_system.run_for(2 * DELTA)
        assert node._join_phase.best_per_key() == {None: ("late", 9)}
        assert (node.register_value, node.sequence_number) == ("v0", 0)

    def test_an_inquiry_after_activation_is_answered_not_parked(self, sync_system):
        pid = sync_system.spawn_joiner()
        sync_system.run_for(4 * DELTA)
        node = sync_system.node(pid)
        assert node._reply_to is None
        reply = node.on_inquiry("p-other", Inquiry("p-other"))
        assert reply == Reply("v0", 0)
        assert node._reply_to is None

    def test_seeds_share_a_reply_only_for_the_same_value_and_sn(self, sync_system):
        first, second, third, fourth = (
            sync_system.node(pid) for pid in sync_system.seed_pids[:4]
        )
        first.space = first.space.adopt(None, "a", 2)
        # The same sn, another value; the same value, another sn.
        second.space = second.space.adopt(None, "b", 2)
        third.space = third.space.adopt(None, "b", 3)
        inquiry = Inquiry("p-other")
        replies = [
            node.on_inquiry(inquiry.sender, inquiry)
            for node in (first, second, third, fourth)
        ]
        assert replies == [Reply("a", 2), Reply("b", 2), Reply("b", 3), Reply("v0", 0)]
        assert fourth.on_inquiry(inquiry.sender, inquiry) is replies[3]
