"""Unit tests for the shared quorum-phase machinery.

Every protocol's reply/ack/sequence bookkeeping now lives in
``QuorumPhase``/``PhaseTracker``; these tests pin the contracts the
three protocols lean on (deterministic best-reply selection, in-place
reopening, lazily stamped thresholds, per-key request counters).
"""

import pytest

from repro.protocols.common import (
    JoinResult,
    KeyedJoinResult,
    PhaseTracker,
    QuorumPhase,
    make_join_result,
)
from repro.core.register import RegisterSpace, key_names


class TestQuorumPhase:
    def test_timer_gated_phase_is_never_satisfied(self):
        phase = QuorumPhase()  # no threshold: closed by a clock
        phase.open()
        for who in ("a", "b", "c"):
            phase.offer(who, ((None, "v", 1),))
        assert phase.count == 3
        assert not phase.satisfied()

    def test_threshold_gates_satisfaction(self):
        phase = QuorumPhase(threshold=2)
        phase.open()
        phase.offer("a", ((None, "v", 1),))
        assert not phase.satisfied()
        phase.offer("b", ((None, "w", 2),))
        assert phase.satisfied()

    def test_reoffer_supersedes(self):
        phase = QuorumPhase(threshold=3)
        phase.open()
        phase.offer("a", ((None, "old", 1),))
        phase.offer("a", ((None, "new", 5),))
        assert phase.count == 1
        assert phase.best_for(None) == ("new", 5)

    def test_best_for_is_max_by_sequence_then_sender(self):
        phase = QuorumPhase()
        phase.open()
        phase.offer("b", ((None, "x", 3),))
        phase.offer("a", ((None, "y", 3),))  # tie on sn: sender id breaks it
        phase.offer("c", ((None, "z", 1),))
        assert phase.best_for(None) == ("x", 3)  # "b" > "a"

    def test_best_for_missing_key_is_none(self):
        phase = QuorumPhase()
        phase.open()
        phase.offer("a", (("k0", "v", 7),))
        assert phase.best_for("k1") is None

    def test_batched_entries_select_per_key(self):
        phase = QuorumPhase()
        phase.open()
        phase.offer("a", (("k0", "v0", 2), ("k1", "w0", 9)))
        phase.offer("b", (("k0", "v1", 5), ("k1", "w1", 3)))
        assert phase.best_for("k0") == ("v1", 5)
        assert phase.best_for("k1") == ("w0", 9)

    def test_open_resets_in_place_and_flags_active(self):
        phase = QuorumPhase(threshold=1)
        phase.open()
        phase.offer("a", ((None, "v", 1),))
        assert phase.active and phase.satisfied()
        phase.open()  # the next round: same object, clean slate
        assert phase.active
        assert phase.count == 0 and not phase.satisfied()
        phase.settle()
        assert not phase.active

    def test_acks_count_without_payload(self):
        phase = QuorumPhase(threshold=2)
        phase.open()
        phase.offer_ack("a")
        phase.offer_ack("b")
        assert phase.satisfied()
        assert phase.best_for(None) is None  # acks carry no entries


class TestPhaseTracker:
    def test_phase_per_key_is_stable(self):
        tracker = PhaseTracker(threshold=2)
        assert tracker.phase("k0") is tracker.phase("k0")
        assert tracker.phase("k0") is not tracker.phase("k1")

    def test_request_counters_are_per_key(self):
        tracker = PhaseTracker()
        assert tracker.current_request("k0") == 0  # request 0 = the join
        assert tracker.next_request("k0") == 1
        assert tracker.next_request("k0") == 2
        assert tracker.current_request("k0") == 2
        assert tracker.current_request("k1") == 0  # untouched

    def test_open_restamps_threshold(self):
        """ABD's universe (hence quorum) is known only lazily: a phase
        created early by a stray ack must still gate correctly."""
        tracker = PhaseTracker()  # threshold unknown yet
        early = tracker.phase("k0")
        assert early.threshold is None
        tracker.threshold = 3
        opened = tracker.open("k0")
        assert opened is early
        assert opened.threshold == 3

    def test_reading_keys_lists_open_phases_in_order(self):
        tracker = PhaseTracker(threshold=1)
        assert tracker.reading_keys() == []
        tracker.open("k1")
        tracker.open("k0")
        tracker.open(None)
        assert tracker.reading_keys() == [None, "k0", "k1"]
        tracker.phase("k1").settle()
        assert tracker.reading_keys() == [None, "k0"]


class TestJoinResults:
    def test_single_key_space_yields_classic_join_result(self):
        space = RegisterSpace(key_names(1))
        space.install_all("v0", 0)
        result = make_join_result(space)
        assert isinstance(result, JoinResult)
        assert (result.value, result.sequence, result.ok) == ("v0", 0, "ok")

    def test_multi_key_space_yields_keyed_join_result(self):
        space = RegisterSpace(key_names(3))
        space.install_all("v0", 0)
        space.install("k2", "hot", 7)
        result = make_join_result(space)
        assert isinstance(result, KeyedJoinResult)
        assert result.ok == "ok"
        assert result.value == "v0"  # default key's adoption, for old tooling
        assert result.for_key("k2") == JoinResult("hot", 7)
        assert result.for_key("k0") == JoinResult("v0", 0)
        with pytest.raises(KeyError):
            result.for_key("k9")
