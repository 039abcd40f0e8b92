"""Property-based tests for the shortcuts on the planning, sampling and
join paths: the cached active list, its O(1) count, the single-pass
best-per-key, and the synchronous join's fold of its replies as they
land.

Each is held to the straightforward computation it replaced, kept here
as the reference.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.common import QuorumPhase
from repro.protocols.sync_reg import Reply
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.engine import EventScheduler
from repro.sim.membership import Membership
from repro.sim.process import SimProcess

# ----------------------------------------------------------------------
# Membership.active_processes() / active_pids() / active_count
# ----------------------------------------------------------------------

#: How a departure reaches the registry: through both objects (what
#: ``DynamicSystem`` does), on the process alone (a bare ``depart()``),
#: or on the registry alone.  An activation has one route, the process's
#: own ``mark_active()``: the process is its own presence record.
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
                if step[0] == "activate":
                    if process._mode.value == "listening":
                        process.mark_active()
                else:
                    if route != "registry":
                        process.depart()
                    if route != "process" and process.left_at is None:
                        membership.leave(process.pid, engine.now)
            expected = scan(membership)
            assert membership.active_pids() == [p.pid for p in expected]
            assert membership.active_count == len(expected)
            # Entry order, and a fresh list every call: callers index,
            # filter and may mutate what they get.
            assert expected == [p for p in entered if p in expected]
            membership.active_pids().clear()


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
    if not candidates:
        return None
    sequence, _sender, value = max(candidates)
    return value, sequence


class TestSinglePassBestPerKey:
    @given(offers=offers)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_key_rescan(self, offers):
        phase = QuorumPhase().open()
        for sender, entries in offers.items():
            phase.offer(sender, entries)
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
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_plain_double_loop(self, states, picks, data):
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
        folded, plain = phase.best_per_key(), plain_best_per_key(phase)
        assert folded == plain
        assert {k: repr(v) for k, v in folded.items()} == {
            k: repr(v) for k, v in plain.items()
        }


# ----------------------------------------------------------------------
# The synchronous join's fold as replies land, against the batch fold
# ----------------------------------------------------------------------


def seed_node(keys: int):
    """A seed of a small sync system with ``keys`` register keys, whose
    ``on_reply`` the test drives by hand."""
    system = DynamicSystem(SystemConfig(n=3, keys=keys, trace=False))
    return system.node(system.seed_pids[0])


#: One arrival: a single-key reply ``(sequence,)`` or a batched one
#: ``(entries,)`` whose entries name the keys of either space (and
#: keys the node does not hold, as under migration), or a phase step.
arrivals = st.lists(
    st.one_of(
        st.tuples(st.just("single"), st.integers(min_value=0, max_value=2)),
        st.tuples(
            st.just("batched"),
            st.lists(
                st.tuples(st.sampled_from(KEYS), st.integers(min_value=0, max_value=2)),
                min_size=1,
                max_size=4,
                unique_by=lambda e: e[0],
            ),
        ),
        st.tuples(st.sampled_from(("open", "release"))),
    ),
    max_size=16,
)


class TestJoinFoldIsTheBatchFold:
    """Line 17 keeps a single-key reply's running max, line 07 merges
    it with the stored batched offers; the adoption is the batch fold's
    over every reply stored whole (what line 17 kept before), in any
    arrival order, with ties on ``sn`` everywhere and values that say
    whose they are.  ``open`` is line 04 (it drops what landed before);
    ``release`` is line 10 (a later reply starts a phase of its own);
    a reply landing with no phase is a stray one."""

    @given(keys=st.sampled_from((1, 3)), arrivals=arrivals, data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_the_batch_fold(self, keys, arrivals, data):
        node = seed_node(keys)
        oracle = QuorumPhase()
        senders = iter(
            data.draw(st.permutations([f"p{i:02d}" for i in range(len(arrivals))]))
        )
        batched = set()
        for arrival in arrivals:
            kind = arrival[0]
            if kind == "open":
                node._phase().open()
                oracle.open()
                batched.clear()
            elif kind == "release":
                node._join_phase = None
                oracle = QuorumPhase()
                batched.clear()
            elif kind == "single":
                sender, sequence = next(senders), arrival[1]
                value = f"{sender}@{sequence}"
                node.on_reply(sender, Reply(value, sequence))
                oracle.offer(sender, [(node.space.keys[0], value, sequence)])
            else:
                sender = next(senders)
                entries = tuple(
                    (key, f"{sender}:{key}@{sequence}", sequence)
                    for key, sequence in arrival[1]
                )
                node.on_reply(sender, Reply("-", -1, entries))
                oracle.offer(sender, entries)
                batched.add(sender)
        phase = node._join_phase
        if phase is None:
            assert oracle.senders() == ()
            return
        assert phase.best_per_key() == plain_best_per_key(oracle)
        # Only the batched offers are kept, and kept whole.
        assert set(phase.senders()) == batched
        assert all(phase._offers[s] == oracle._offers[s] for s in batched)
