"""Interned immutable spaces ≡ one private cell dict per node.

:class:`~repro.core.register.RegisterSpace` IS its list of ``(value,
sequence)`` cells, in key order, addressed through a ``key → position``
index that its successors share, and it is never changed once built: a
transition returns the successor space and the node rebinds ``space`` to
it.  Every space comes from its system's
:class:`~repro.core.register.SpaceTable`, one object per content, so
nodes in one register state hold one space (and the REPLY derived from
it).  Until seeds shared a space each node kept ``key → (value,
sequence)`` in a dict of its own; that layout lives on here as the
reference model, one private model per node.  A Hypothesis state machine
starts a small population on one space (a seed's or the joiners' blank
one), drives random installs, adoptions and key admissions on single
nodes, random join folds (``adopt_all`` of one set of per-key maxima at
several nodes in turn) and random WRITEs — a writer's install of
``sn + 1``, then an adoption at every other node in turn — and after
every step holds that:

* every node's space equals its private model, observable by observable;
* no transition changed a space object that any node holds or held, nor
  the start space's index, and only a space that admitted a key owns an
  index of its own;
* every two spaces held with equal content (the same keys, value objects
  and sequence numbers) are one object, the one the table holds for it.
"""

from __future__ import annotations

from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.register import BOTTOM, SINGLE_KEY, SpaceTable
from repro.protocols.sync_reg import Reply

UNSET = (BOTTOM, -1)
POPULATION = 4


class DictSpace:
    """The former per-node layout, behaviour for behaviour (the
    reference): mutated in place, never shared."""

    def __init__(self, keys: tuple[Any, ...], cell: tuple[Any, int] = UNSET) -> None:
        self._keys = tuple(keys)
        self._cells = dict.fromkeys(self._keys, cell)

    @property
    def keys(self):
        return self._keys

    def resolve(self, key=None):
        if key is None:
            return self._keys[0]
        if key not in self._cells:
            raise KeyError(f"unknown register key {key!r}; have {self._keys}")
        return key

    def value(self, key=None):
        return self._cells[self.resolve(key)][0]

    def sequence(self, key=None):
        return self._cells[self.resolve(key)][1]

    def snapshot(self, key=None):
        return self._cells[self.resolve(key)]

    def reply_parts(self):
        value, sequence = self._cells[self._keys[0]]
        if len(self._keys) == 1:
            return value, sequence, None
        return value, sequence, self.entries()

    def install(self, key, value, sequence):
        self._cells[self.resolve(key)] = (value, sequence)

    def adopt(self, key, value, sequence):
        """True iff the cells changed (an admission counts)."""
        admitted = False
        if key is None:
            key = self._keys[0]
        elif key not in self._cells:
            self._keys += (key,)
            self._cells[key] = UNSET
            admitted = True
        if sequence > self._cells[key][1]:
            self._cells[key] = (value, sequence)
            return True
        return admitted

    def adopt_all(self, best):
        """True iff some key of this space took a newer offer."""
        changed = False
        for key in self._keys:
            offer = best.get(key)
            if offer is not None and offer[1] > self._cells[key][1]:
                self._cells[key] = offer
                changed = True
        return changed

    def entries(self):
        return tuple(
            (key, value, sequence) for key, (value, sequence) in self._cells.items()
        )


#: Keys a space may start with, plus two it never starts with (adoption
#: admits them; every resolve-gated call must refuse them until then).
NAMED = ("k0", "k1", "k2")
STRANGERS = ("x0", "x1")
any_key = st.sampled_from((None, *NAMED, *STRANGERS))
values = st.sampled_from(("a", "b", "c", BOTTOM))
sequences = st.integers(min_value=-1, max_value=6)
nodes = st.integers(min_value=0, max_value=POPULATION - 1)
offers = st.dictionaries(
    st.sampled_from((SINGLE_KEY, *NAMED, *STRANGERS)), st.tuples(values, sequences)
)


def content(space):
    """Same keys, and cell for cell the same value object and sn."""
    return (space.keys, *((id(value), sequence) for value, sequence in space))


def outcome(call):
    """What a call did: ``"ok"``, or the error it raised."""
    try:
        call()
        return ("ok",)
    except KeyError as error:
        return ("KeyError", str(error))


class SharedSpacesAreDicts(RuleBasedStateMachine):
    @initialize(
        keys=st.sampled_from(((SINGLE_KEY,), NAMED[:1], NAMED[:2], NAMED)),
        seed=st.none() | st.tuples(values, sequences),
    )
    def build(self, keys, seed):
        self.keys = keys
        # One space for the whole population, as the runtime builds it.
        self.table = SpaceTable()
        shared = self.table.space(keys) if seed is None else self.table.space(keys, seed)
        self.spaces = [shared] * POPULATION
        self.models = [
            DictSpace(keys) if seed is None else DictSpace(keys, seed)
            for _ in range(POPULATION)
        ]
        self.shared, self.index = shared._index, dict(shared._index)
        #: id -> (space, its cells, keys and index as first seen): every
        #: space any node held, kept alive so the ids stay distinct.
        self.seen: dict[int, tuple] = {}
        self.remember()

    def remember(self):
        for space in self.spaces:
            if id(space) not in self.seen:
                self.seen[id(space)] = (
                    space, list(space), space.keys, dict(space._index)
                )

    def step(self, node, name, *args):
        """``name`` on ``node``'s space and on its model; the node
        rebinds to the successor.  Returns (prior, successor, model's
        result)."""
        prior, model = self.spaces[node], self.models[node]
        successor, result = None, None

        def on_space():
            nonlocal successor
            successor = getattr(prior, name)(*args)

        def on_model():
            nonlocal result
            result = getattr(model, name)(*args)

        assert outcome(on_space) == outcome(on_model), name
        if successor is not None:
            self.spaces[node] = successor
        self.remember()
        return prior, successor, result

    @rule(node=nodes, key=any_key, value=values, sequence=sequences)
    def install(self, node, key, value, sequence):
        self.step(node, "install", key, value, sequence)

    @rule(node=nodes, key=any_key, value=values, sequence=sequences)
    def adopt(self, node, key, value, sequence):
        prior, successor, changed = self.step(node, "adopt", key, value, sequence)
        # A refused adoption that admits nothing keeps the very space.
        assert (successor is prior) == (not changed)

    @rule(joiners=st.lists(nodes, min_size=1, unique=True), best=offers)
    def join(self, joiners, best):
        """Lines 07-08 of Figure 1 at each of ``joiners`` in turn: one
        fold of the same per-key maxima, each joiner's own offer tuples."""
        for node in joiners:
            fresh = {key: tuple(offer) for key, offer in best.items()}
            prior, successor, changed = self.step(node, "adopt_all", fresh)
            assert (successor is prior) == (not changed)

    @rule(writer=nodes, key=st.sampled_from((None, *NAMED)))
    def write(self, writer, key):
        """Figure 2's write: ``sn += 1; register := v``, then WRITE(v,
        sn) adopted at every other node, in node order."""
        try:
            self.spaces[writer].resolve(key)
        except KeyError:
            return
        value, sequence = object(), self.spaces[writer].sequence(key) + 1
        self.step(writer, "install", key, value, sequence)
        for node in range(POPULATION):
            if node != writer:
                self.step(node, "adopt", key, value, sequence)

    @invariant()
    def every_node_equals_its_model(self):
        for space, model in zip(self.spaces, self.models):
            assert space.keys == model.keys
            assert len(space) == len(model.keys)
            assert list(space) == [model.snapshot(key) for key in model.keys]
            assert space.entries() == model.entries()
            assert space.reply_parts() == model.reply_parts()
            if space.reply is not None:
                assert space.reply == Reply(*model.reply_parts())
            for key in (None, *NAMED, *STRANGERS):
                for name in ("resolve", "value", "sequence", "snapshot"):
                    got = outcome(lambda: getattr(space, name)(key))
                    assert got == outcome(lambda: getattr(model, name)(key))
                    if got == ("ok",):
                        assert getattr(space, name)(key) == getattr(model, name)(key)

    @invariant()
    def no_transition_changes_a_held_space(self):
        for space, cells, keys, index in self.seen.values():
            assert list(space) == cells and space.keys == keys
            assert space._index == index
            # Only an admitting space owns its index; every other space
            # probes the start space's one index.
            assert (space._index is self.shared) == (space.keys == self.keys)
        # The start space's index is never written, whoever admitted.
        assert self.shared == self.index

    @invariant()
    def one_object_per_content(self):
        held = {}
        for space, *_ in self.seen.values():
            assert held.setdefault(content(space), space) is space
        # The table holds the held states and nothing else.
        assert sorted(id(entry()) for entry in self.table.values()) == sorted(self.seen)


SharedSpacesAreDicts.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None
)
TestSharedSpacesAreDicts = SharedSpacesAreDicts.TestCase


def test_a_snapshot_does_not_alias_later_writes():
    space = SpaceTable().space(("k0",)).install("k0", "a", 1)
    before = space.snapshot("k0")
    later = space.install("k0", "a", 2).adopt("k0", "b", 5)
    assert before == ("a", 1) and space.snapshot("k0") == ("a", 1)
    assert later.snapshot("k0") == ("b", 5)
