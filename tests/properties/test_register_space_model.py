"""One cell dict ≡ two.

:class:`~repro.core.register.RegisterSpace` keeps ``key → (value,
sequence)`` in one dict; until per-process state went on a diet it kept
a ``_values`` and a ``_sequences`` dict side by side.  The two-dict
layout lives on here as the reference model: a Hypothesis state machine
drives both with the same random mutator calls — known, unknown and
``None`` keys — and compares every observable after every step.
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


class TwoDictSpace:
    """The former layout, behaviour for behaviour (the reference)."""

    def __init__(self, keys: tuple[Any, ...]) -> None:
        self._keys = tuple(keys)
        self._values = {key: BOTTOM for key in self._keys}
        self._sequences = {key: -1 for key in self._keys}
        self.version = 0

    @property
    def keys(self):
        return self._keys

    @property
    def is_single(self):
        return len(self._keys) == 1

    def resolve(self, key=None):
        if key is None:
            return self._keys[0]
        if key not in self._values:
            raise KeyError(f"unknown register key {key!r}; have {self._keys}")
        return key

    def value(self, key=None):
        return self._values[self.resolve(key)]

    def sequence(self, key=None):
        return self._sequences[self.resolve(key)]

    def snapshot(self, key=None):
        key = self.resolve(key)
        return self._values[key], self._sequences[key]

    def reply_parts(self):
        key = self._keys[0]
        if len(self._keys) == 1:
            return self._values[key], self._sequences[key], None
        return self._values[key], self._sequences[key], self.entries()

    def install(self, key, value, sequence):
        key = self.resolve(key)
        self.version += 1
        self._values[key] = value
        self._sequences[key] = sequence

    def install_all(self, value, sequence):
        self.version += 1
        for key in self._keys:
            self._values[key] = value
            self._sequences[key] = sequence

    def adopt(self, key, value, sequence):
        self.version += 1
        if key is None:
            key = self._keys[0]
        elif key not in self._values:
            self._keys += (key,)
            self._values[key] = BOTTOM
            self._sequences[key] = -1
        if sequence > self._sequences[key]:
            self._values[key] = value
            self._sequences[key] = sequence
            return True
        return False

    def bump(self, key=None):
        key = self.resolve(key)
        self.version += 1
        self._sequences[key] += 1
        return self._sequences[key]

    def entries(self):
        return tuple(
            (key, self._values[key], self._sequences[key]) for key in self._keys
        )


#: Keys a space may start with, plus two it never starts with (adoption
#: admits them; every resolve-gated call must refuse them until then).
NAMED = ("k0", "k1", "k2")
STRANGERS = ("x0", "x1")
any_key = st.sampled_from((None, *NAMED, *STRANGERS))
values = st.sampled_from(("a", "b", "c", BOTTOM))
sequences = st.integers(min_value=-1, max_value=6)


def outcome(call):
    """What a call did: its result, or the error it raised."""
    try:
        return ("ok", call())
    except KeyError as error:
        return ("KeyError", str(error))


class OneDictIsTwo(RuleBasedStateMachine):
    @initialize(keys=st.sampled_from(((SINGLE_KEY,), NAMED[:1], NAMED[:2], NAMED)))
    def build(self, keys):
        self.space = RegisterSpace(keys)
        self.model = TwoDictSpace(keys)

    def both(self, name, *args):
        got = outcome(lambda: getattr(self.space, name)(*args))
        assert got == outcome(lambda: getattr(self.model, name)(*args)), name
        return got

    @rule(key=any_key, value=values, sequence=sequences)
    def install(self, key, value, sequence):
        self.both("install", key, value, sequence)

    @rule(value=values, sequence=sequences)
    def install_all(self, value, sequence):
        self.both("install_all", value, sequence)

    @rule(key=any_key, value=values, sequence=sequences)
    def adopt(self, key, value, sequence):
        self.both("adopt", key, value, sequence)

    @rule(key=any_key)
    def bump(self, key):
        self.both("bump", key)

    @invariant()
    def every_observable_agrees(self):
        space, model = self.space, self.model
        assert space.keys == model.keys
        assert space.is_single == model.is_single
        assert space.version == model.version
        assert space.entries() == model.entries()
        assert space.reply_parts() == model.reply_parts()
        for key in (None, *NAMED, *STRANGERS):
            for name in ("resolve", "value", "sequence", "snapshot"):
                self.both(name, key)


OneDictIsTwo.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, deadline=None
)
TestOneDictIsTwo = OneDictIsTwo.TestCase


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
