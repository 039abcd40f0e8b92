"""Unit tests for the shared quorum-phase machinery.

Every protocol's reply/ack/sequence bookkeeping now lives in
``QuorumPhase``/``PhaseTracker``; these tests pin the contracts the
three protocols lean on (deterministic best-reply selection, in-place
reopening, lazily stamped thresholds, per-key request counters, and a
tracker that is the one dict of its phases).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.common import (
    JoinResult,
    KeyedJoinResult,
    PhaseTracker,
    QuorumPhase,
    make_join_result,
)
from repro.core.register import SpaceTable, key_names


class TestQuorumPhase:
    def test_timer_gated_phase_is_never_satisfied(self):
        phase = QuorumPhase()  # no threshold: closed by a clock
        phase.open()
        for who in ("a", "b", "c"):
            phase.offer(who, ((None, "v", 1),))
        assert len(phase.senders()) == 3
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
        assert len(phase.senders()) == 1
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
        assert len(phase.senders()) == 0 and not phase.satisfied()
        phase.settle()
        assert not phase.active

    def test_the_folded_lead_seeds_best_per_key(self):
        """A timer-gated phase's folded single-key max competes with the
        stored offers under the same ``(sequence, sender)`` order."""
        phase = QuorumPhase()
        phase.open()
        phase._lead = (3, "b", "lead", "k0")
        phase.offer("a", (("k0", "stored", 3), ("k1", "w", 1)))
        assert phase.best_per_key() == {"k0": ("lead", 3), "k1": ("w", 1)}
        phase.offer("c", (("k0", "later", 3),))
        assert phase.best_for("k0") == ("later", 3)  # "c" > "b"
        assert phase.senders() == ("a", "c")  # the lead is not an offer

    def test_open_drops_the_folded_lead(self):
        phase = QuorumPhase()
        phase.open()
        phase._lead = (1, "a", "v", None)
        phase.settle()
        assert phase.best_for(None) == ("v", 1)  # settling keeps it
        phase.open()
        assert phase.best_per_key() == {}

    def test_acks_count_without_payload(self):
        phase = QuorumPhase(threshold=2)
        phase.open()
        phase.offer_ack("a")
        phase.offer_ack("b")
        assert phase.satisfied()
        assert phase.best_for(None) is None  # acks carry no entries


class TestPhaseTracker:
    def test_the_tracker_is_the_one_dict_of_its_phases(self):
        tracker = PhaseTracker()
        assert isinstance(tracker, dict)
        assert PhaseTracker.__slots__ == () and not hasattr(tracker, "__dict__")
        assert tracker.open("k0", 2) is tracker.open("k0", 2) is tracker["k0"]
        assert tracker.open("k0", 2) is not tracker.open("k1", 2)

    def test_a_probe_for_a_key_never_opened_allocates_nothing(self):
        tracker = PhaseTracker()
        assert tracker.get("k0") is None and len(tracker) == 0
        tracker.open("k1", 2)
        assert tracker.get("k0") is None and list(tracker) == ["k1"]

    def test_request_counters_are_per_key_and_ride_the_phase(self):
        tracker = PhaseTracker()
        assert tracker.open("k0", None).request == 0  # request 0 = the join
        tracker["k0"].request += 1  # what a reader does: read_sn + 1
        assert tracker.open("k0", None).request == 1  # a new round keeps it
        assert tracker.open("k1", None).request == 0  # untouched

    def test_open_restamps_threshold(self):
        """ABD's universe (hence quorum) is known only lazily: a phase
        opened before it was must still gate correctly afterwards."""
        tracker = PhaseTracker()
        early = tracker.open("k0", None)  # threshold unknown yet
        assert early.threshold is None and not early.satisfied()
        opened = tracker.open("k0", 3)
        assert opened is early
        assert opened.threshold == 3

    def test_reading_keys_lists_open_phases_in_order(self):
        tracker = PhaseTracker()
        assert tracker.reading_keys() == []
        tracker.open("k1", 1)
        tracker.open("k0", 1)
        tracker.open(None, 1)
        assert tracker.reading_keys() == [None, "k0", "k1"]
        tracker["k1"].settle()
        assert tracker.reading_keys() == [None, "k0"]


class _TwoDictTracker:
    """The tracker as it stood before it became its own dict: a phase
    dict and a request-counter dict behind accessor methods.  The
    reference model the one-dict tracker is held to."""

    def __init__(self, threshold):
        self.threshold = threshold
        self._phases = {}
        self._requests = {}

    def phase(self, key):
        phase = self._phases.get(key)
        if phase is None:
            phase = self._phases[key] = QuorumPhase(self.threshold)
        return phase

    def open(self, key):
        phase = self.phase(key)
        phase.threshold = self.threshold
        return phase.open()

    def current_request(self, key):
        return self._requests.get(key, 0)

    def next_request(self, key):
        request = self._requests[key] = self._requests.get(key, 0) + 1
        return request

    def reading_keys(self):
        return sorted(
            (key for key, phase in self._phases.items() if phase.active),
            key=lambda key: (key is not None, str(key)),
        )


_KEYS = st.sampled_from([None, "k0", "k1", "k2"])
_SENDERS = st.sampled_from(["a", "b", "c"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), _KEYS),
        st.tuples(st.just("next"), _KEYS),
        st.tuples(st.just("offer"), _KEYS, _SENDERS, st.integers(0, 9)),
        st.tuples(st.just("ack"), _KEYS, _SENDERS),
        st.tuples(st.just("settle"), _KEYS),
        st.tuples(st.just("probe"), _KEYS),
        st.tuples(st.just("threshold"), st.integers(1, 3)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS)
def test_the_one_dict_tracker_matches_the_two_dict_model(steps):
    """Same request numbers, counts, quorum verdicts and
    ``reading_keys()`` order as phases + counters behind accessors —
    where a handler's ``phase(key)`` is now ``get(key)``, which builds
    nothing for a key no round ever opened (the model's stray phase is
    closed, empty and reset by the next ``open``: unobservable).  An
    offer is what a quorum handler writes — the replier counted as an
    ack is, its entry folded into the lead, and nothing recorded once
    the round settled — so a round adopts the max over the offers made
    while it was active."""
    tracker, model = PhaseTracker(), _TwoDictTracker(2)
    opened = set()
    made = {}  # key -> (sequence, sender) of every offer made while active
    for step in steps:
        kind, key = step[0], step[1]
        if kind == "threshold":
            model.threshold = key
        elif kind == "open":
            opened.add(key)
            made[key] = []
            assert tracker.open(key, model.threshold).active
            assert model.open(key).active
        elif kind == "next":  # the numbered round: next_request + open
            opened.add(key)
            made[key] = []
            request = model.next_request(key)
            model.open(key)
            phase = tracker.open(key, model.threshold)
            phase.request += 1
            assert phase.request == request
        elif kind == "probe":
            before = len(tracker)
            phase = tracker.get(key)
            assert (phase is not None) == (key in opened)
            assert len(tracker) == before == len(opened)
        else:
            phase, reference = tracker.get(key), model.phase(key)
            if phase is None:  # no round ever opened: nobody collects
                assert key not in opened
                continue
            if kind == "offer":
                _, _, sender, sequence = step
                if phase.active:  # what a handler writes: count, fold
                    phase._offers[sender] = ()
                    lead = phase._lead
                    if lead is None or (sequence, sender) > lead[:2]:
                        phase._lead = (sequence, sender, f"{sender}@{sequence}", key)
                if reference.active:
                    reference.offer_ack(sender)
                    made[key].append((sequence, sender))
            elif kind == "ack":
                sender = step[2]
                if phase.active:
                    phase._offers[sender] = ()
                if reference.active:
                    reference.offer_ack(sender)
            else:
                phase.settle()
                reference.settle()
        assert tracker.reading_keys() == model.reading_keys()
        for key in opened:
            phase, reference = tracker[key], model.phase(key)
            assert phase.request == model.current_request(key)
            assert len(phase.senders()) == len(reference.senders())
            assert phase.threshold == reference.threshold
            assert phase.satisfied() == reference.satisfied()
            assert phase.active == reference.active
            # The max over the offers made while active, tie-break
            # included (the value names its sender).
            best = max(made[key], default=None)
            expected = None if best is None else (f"{best[1]}@{best[0]}", best[0])
            assert phase.best_for(key) == expected


class TestJoinResults:
    def test_single_key_space_yields_classic_join_result(self):
        space = SpaceTable().space(key_names(1), ("v0", 0))
        result = make_join_result(space)
        assert isinstance(result, JoinResult)
        assert (result.value, result.sequence) == ("v0", 0)

    def test_multi_key_space_yields_keyed_join_result(self):
        space = SpaceTable().space(key_names(3), ("v0", 0)).install("k2", "hot", 7)
        result = make_join_result(space)
        assert isinstance(result, KeyedJoinResult)
        assert result.value == "v0"  # default key's adoption, for old tooling
        assert result.for_key("k2") == JoinResult("hot", 7)
        assert result.for_key("k0") == JoinResult("v0", 0)
        with pytest.raises(KeyError):
            result.for_key("k9")
