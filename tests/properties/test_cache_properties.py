"""Property-based tests for the shortcuts on the planning, sampling and
join paths: the cached active list, its O(1) count, and the single-pass
best-per-key.

Each is held to the straightforward computation it replaced, kept here
as the reference.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.common import QuorumPhase
from repro.sim.engine import EventScheduler
from repro.sim.membership import Membership
from repro.sim.process import SimProcess

# ----------------------------------------------------------------------
# Membership.active_processes() / active_pids() / active_count
# ----------------------------------------------------------------------

#: How a transition reaches the registry: through both objects (what
#: ``DynamicSystem`` does), on the process alone (a bare
#: ``mark_active()`` / ``depart()``), or on the registry alone.
ROUTES = ("both", "process", "registry")

steps = st.lists(
    st.one_of(
        st.just(("enter",)),
        st.just(("enter-active",)),  # activated before the registry saw it
        st.tuples(
            st.sampled_from(("activate", "leave")),
            st.integers(min_value=0, max_value=30),
            st.sampled_from(ROUTES),
        ),
    ),
    max_size=60,
)


def scan(membership: Membership) -> list[SimProcess]:
    return [p for p in membership.present_processes() if p.is_active]


class TestCachedActiveList:
    @given(steps=steps)
    @settings(max_examples=300, deadline=None)
    def test_cache_equals_scan_after_any_transition_sequence(self, steps):
        engine = EventScheduler()
        membership = Membership()
        entered: list[SimProcess] = []
        for step in steps:
            if step[0] in ("enter", "enter-active"):
                process = SimProcess(f"p{len(entered):03d}", engine)
                entered.append(process)
                if step[0] == "enter-active":
                    process.mark_active()
                membership.enter(process)
            elif entered:
                _, index, route = step
                process = entered[index % len(entered)]
                record = membership.record(process.pid)
                if step[0] == "activate":
                    if route != "registry" and process.mode.value == "listening":
                        process.mark_active()
                    if route != "process" and record.left_at is None:
                        membership.mark_active(process.pid, engine.now)
                else:
                    if route != "registry":
                        process.depart()
                    if route != "process" and record.left_at is None:
                        membership.leave(process.pid, engine.now)
            expected = scan(membership)
            assert membership.active_processes() == expected
            assert membership.active_pids() == [p.pid for p in expected]
            assert membership.active_count == len(expected)
            # Entry order, and a fresh list every call: callers index,
            # filter and may mutate what they get.
            assert expected == [p for p in entered if p in expected]
            membership.active_processes().clear()
            membership.active_pids().clear()
            assert membership.active_processes() == expected


# ----------------------------------------------------------------------
# QuorumPhase.best_per_key()
# ----------------------------------------------------------------------

KEYS = ("k0", "k1", "k2", None)

#: Equal sequence numbers carry equal values (the protocols' invariant),
#: so a value is a function of its ``(key, sequence)``; the narrow
#: sequence range forces ties.
entry = st.tuples(
    st.sampled_from(KEYS), st.integers(min_value=0, max_value=3)
).map(lambda ks: (ks[0], f"{ks[0]}@{ks[1]}", ks[1]))

offers = st.dictionaries(
    st.sampled_from(("a", "b", "c", "d", "e")),
    st.lists(entry, max_size=4, unique_by=lambda e: e[0]).map(tuple),
    max_size=5,
)


def reference_best_for(phase: QuorumPhase, key):
    """The per-key rescan ``best_for`` used to be."""
    candidates = [
        (sequence, sender, value)
        for sender, entries in phase._offers.items()
        for entry_key, value, sequence in entries
        if entry_key == key
    ]
    candidates.extend(
        (sequence, "", value)
        for entry_key, value, sequence in phase._bulk_entries
        if entry_key == key
    )
    if not candidates:
        return None
    sequence, _sender, value = max(candidates)
    return value, sequence


class TestSinglePassBestPerKey:
    @given(offers=offers, bulk=st.lists(entry, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_key_rescan(self, offers, bulk):
        phase = QuorumPhase().open()
        for sender, entries in offers.items():
            phase.offer(sender, entries)
        if bulk:
            phase.record_bulk(len(bulk), bulk)
        best = phase.best_per_key()
        for key in KEYS:
            expected = reference_best_for(phase, key)
            assert best.get(key) == expected
            assert phase.best_for(key) == expected
        assert all(found is not None for found in best.values())


def plain_best_per_key(phase: QuorumPhase):
    """``best_per_key`` as the plain walk over offers × keys."""
    best = {}
    for sender, entries in phase._offers.items():
        for key, value, sequence in entries:
            held = best.get(key)
            if (
                held is None
                or sequence > held[0]
                or (sequence == held[0] and sender > held[1])
            ):
                best[key] = (sequence, sender, value)
    for key, value, sequence in phase._bulk_entries:
        held = best.get(key)
        if held is None or sequence > held[0]:
            best[key] = (sequence, "", value)
    return {key: (value, sequence) for key, (sequence, _, value) in best.items()}


#: Equal values that tell apart (``1 == 1.0 == True``): the same state
#: offered in two flavours makes *equal tuples* from different senders,
#: and only the ``repr`` shows whose value an adoption returned.
FLAVOURS = (int, float, bool)

states = st.lists(
    st.lists(
        st.tuples(st.sampled_from(KEYS), st.integers(min_value=0, max_value=2)),
        max_size=4,
        unique_by=lambda e: e[0],
    ),
    min_size=1,
    max_size=3,
)


class TestFoldedBestPerKey:
    """Equal offers are folded to the greatest sender's before the
    walk; the adoption is the plain walk's in every case."""

    @given(
        states=states,
        picks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(FLAVOURS),
                st.booleans(),
            ),
            max_size=12,
        ),
        bulk=st.lists(
            st.tuples(
                st.sampled_from(KEYS),
                st.sampled_from((1, 1.0, True)),
                st.integers(min_value=0, max_value=2),
            ),
            max_size=3,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_plain_double_loop(self, states, picks, bulk, data):
        phase = QuorumPhase().open()
        # One tuple per (state, flavour): offers that share it are the
        # entries of one cached reply; ``fresh`` offers an equal copy.
        built = {
            (index, flavour): tuple(
                (key, flavour(1), sequence) for key, sequence in state
            )
            for index, state in enumerate(states)
            for flavour in FLAVOURS
        }
        senders = data.draw(st.permutations([f"p{i:02d}" for i in range(len(picks))]))
        for sender, (pick, flavour, fresh) in zip(senders, picks):
            entries = built[pick % len(states), flavour]
            phase.offer(sender, tuple(list(entries)) if fresh else entries)
        if bulk:
            phase.record_bulk(len(bulk), bulk)
        folded, plain = phase.best_per_key(), plain_best_per_key(phase)
        assert folded == plain
        assert {k: repr(v) for k, v in folded.items()} == {
            k: repr(v) for k, v in plain.items()
        }
