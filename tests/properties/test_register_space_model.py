"""A list of cells ≡ one cell dict.

:class:`~repro.core.register.RegisterSpace` IS its list of ``(value,
sequence)`` cells, in key order, addressed through a ``key → position``
index that every space built from the same key tuple shares; until a
seed's register went on a diet it kept ``key → (value, sequence)`` in a
dict of its own.  That layout lives on here as the reference model: a
Hypothesis state machine builds two sibling spaces from one key tuple,
drives either with the same random mutator calls as its model — known,
unknown and ``None`` keys, adoptions that admit a key — and compares
every observable of both after every step.  A sibling that admits a key
must leave the other's index (and every other seed's) as it was.
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

from repro.core.register import BOTTOM, SINGLE_KEY, RegisterSpace

UNSET = (BOTTOM, -1)


class DictSpace:
    """The former layout, behaviour for behaviour (the reference)."""

    def __init__(self, keys: tuple[Any, ...], cell: tuple[Any, int] = UNSET) -> None:
        self._keys = tuple(keys)
        self._cells = dict.fromkeys(self._keys, cell)
        self.version = 0 if cell is UNSET else 1

    @property
    def keys(self):
        return self._keys

    @property
    def is_single(self):
        return len(self._keys) == 1

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
        key = self.resolve(key)
        self.version += 1
        self._cells[key] = (value, sequence)

    def adopt(self, key, value, sequence):
        self.version += 1
        if key is None:
            key = self._keys[0]
        elif key not in self._cells:
            self._keys += (key,)
            self._cells[key] = UNSET
        if sequence > self._cells[key][1]:
            self._cells[key] = (value, sequence)
            return True
        return False

    def bump(self, key=None):
        key = self.resolve(key)
        self.version += 1
        value, sequence = self._cells[key]
        self._cells[key] = (value, sequence + 1)
        return sequence + 1

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
siblings = st.sampled_from((0, 1))


def outcome(call):
    """What a call did: its result, or the error it raised."""
    try:
        return ("ok", call())
    except KeyError as error:
        return ("KeyError", str(error))


class ListIsDict(RuleBasedStateMachine):
    @initialize(
        keys=st.sampled_from(((SINGLE_KEY,), NAMED[:1], NAMED[:2], NAMED)),
        seed=st.none() | st.tuples(values, sequences),
    )
    def build(self, keys, seed):
        cell = () if seed is None else (seed,)
        self.keys = keys
        self.spaces = [RegisterSpace(keys, *cell) for _ in range(2)]
        self.models = [DictSpace(keys, *cell) for _ in range(2)]
        self.shared = self.spaces[0]._index

    def both(self, node, name, *args):
        got = outcome(lambda: getattr(self.spaces[node], name)(*args))
        assert got == outcome(lambda: getattr(self.models[node], name)(*args)), name
        return got

    @rule(node=siblings, key=any_key, value=values, sequence=sequences)
    def install(self, node, key, value, sequence):
        self.both(node, "install", key, value, sequence)

    @rule(node=siblings, key=any_key, value=values, sequence=sequences)
    def adopt(self, node, key, value, sequence):
        self.both(node, "adopt", key, value, sequence)

    @rule(node=siblings, key=any_key)
    def bump(self, node, key):
        self.both(node, "bump", key)

    @invariant()
    def every_observable_agrees(self):
        for node, (space, model) in enumerate(zip(self.spaces, self.models)):
            assert space.keys == model.keys
            assert space.is_single == model.is_single
            assert space.version == model.version
            assert space.entries() == model.entries()
            assert space.reply_parts() == model.reply_parts()
            for key in (None, *NAMED, *STRANGERS):
                for name in ("resolve", "value", "sequence", "snapshot"):
                    self.both(node, name, key)

    @invariant()
    def only_an_admitting_space_owns_its_index(self):
        assert self.shared == {key: i for i, key in enumerate(self.keys)}
        for space in self.spaces:
            assert (space._index is self.shared) == (space.keys == self.keys)


ListIsDict.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None
)
TestListIsDict = ListIsDict.TestCase


def test_an_empty_key_tuple_is_still_refused():
    with pytest.raises(ValueError):
        RegisterSpace(())


def test_a_snapshot_does_not_alias_later_writes():
    space = RegisterSpace(("k0",))
    space.install("k0", "a", 1)
    before = space.snapshot("k0")
    space.bump("k0")
    space.adopt("k0", "b", 5)
    assert before == ("a", 1) and space.snapshot("k0") == ("b", 5)
