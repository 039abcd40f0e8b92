"""A plan built at one call per op is the plan it replaced.

Two things changed under ``read_heavy_plan`` and nothing may show:

* ``poisson_times`` draws each gap inline, ``-log(1.0 - rng.random())
  / rate``, instead of calling ``rng.expovariate(rate)``.  A reference
  loop that calls ``expovariate`` — the loop it replaced, kept here —
  must give the same floats (compared by ``repr``, so ``-0.0`` and the
  last bit count) and leave its RNG in the same ``getstate()``, for any
  seed, start, span and rate: a replayer that rebuilds a plan from a
  recorded seed relies on exactly this draw-for-draw contract.
* ``ReadOp`` / ``WriteOp`` build through a hand-written ``__init__``.
  They must stay the frozen slotted value objects the dataclass made:
  op for op equal, hashing and printing like the dataclass-generated
  class with the same fields (``make_dataclass``, below), refusing
  field assignment, positional ≡ keyword construction, and
  ``dataclasses.replace`` / ``pickle`` round trips.
"""

from __future__ import annotations

import pickle
import random
import sys
from dataclasses import FrozenInstanceError, field, fields, make_dataclass, replace
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import poisson_times
from repro.workloads.schedule import ReadOp, WriteOp


def reference_poisson_times(
    start: float, end: float, rate: float, rng: random.Random
) -> list[float]:
    """``poisson_times`` as it was, one ``rng.expovariate`` call per gap."""
    times = []
    t = start
    if rate == 0:
        return times
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return times
        times.append(t)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    start=st.floats(-1e6, 1e6, allow_nan=False),
    span=st.floats(0.0, 50.0, allow_nan=False),
    rate=st.one_of(st.just(0.0), st.floats(1e-3, 40.0)),
)
def test_the_inline_draw_is_expovariate_draw_for_draw(seed, start, span, rate):
    end = start + span
    inline_rng, reference_rng = random.Random(seed), random.Random(seed)
    drawn = poisson_times(start, end, rate, inline_rng)
    expected = reference_poisson_times(start, end, rate, reference_rng)
    assert list(map(repr, drawn)) == list(map(repr, expected))
    assert inline_rng.getstate() == reference_rng.getstate()


# ----------------------------------------------------------------------
# Plan ops stay value objects
# ----------------------------------------------------------------------

#: The dataclass-generated classes the ops must behave like.
GENERATED = {
    ReadOp: make_dataclass(
        "ReadOp",
        [
            ("time", float),
            ("reader", str | None, field(default=None)),
            ("key", Any, field(default=None)),
        ],
        frozen=True,
        slots=True,
    ),
    WriteOp: make_dataclass(
        "WriteOp",
        [
            ("time", float),
            ("value", Any, field(default=None)),
            ("writer", str | None, field(default=None)),
            ("key", Any, field(default=None)),
        ],
        frozen=True,
        slots=True,
    ),
}

instants = st.floats(allow_nan=False)
pids = st.none() | st.text(max_size=6)
hashables = st.none() | st.integers() | st.text(max_size=6) | st.tuples(st.integers())
read_args = st.tuples(instants, pids, hashables)
write_args = st.tuples(instants, hashables, pids, hashables)
ops = st.one_of(
    read_args.map(lambda args: (ReadOp, args)),
    write_args.map(lambda args: (WriteOp, args)),
)


@settings(max_examples=300, deadline=None)
@given(ops)
def test_an_op_is_the_generated_dataclass_with_the_same_fields(case):
    cls, args = case
    op, generated = cls(*args), GENERATED[cls](*args)
    assert repr(op) == repr(generated)
    assert hash(op) == hash(generated)
    assert [getattr(op, f.name) for f in fields(op)] == list(args)
    assert cls.__match_args__ == GENERATED[cls].__match_args__
    assert cls.__slots__ == GENERATED[cls].__slots__
    assert sys.getsizeof(op) == sys.getsizeof(generated)
    assert not hasattr(op, "__dict__")


@settings(max_examples=300, deadline=None)
@given(ops)
def test_positional_and_keyword_construction_agree_and_hash_equal(case):
    cls, args = case
    keywords = dict(zip(cls.__match_args__, args))
    positional, by_keyword = cls(*args), cls(**keywords)
    assert positional == by_keyword
    assert hash(positional) == hash(by_keyword)


@settings(max_examples=300, deadline=None)
@given(ops, hashables)
def test_replace_and_pickle_round_trip(case, key):
    cls, args = case
    op = cls(*args)
    keyed = replace(op, key=key)
    assert type(keyed) is cls and keyed.key == key
    assert replace(keyed, key=op.key) == op
    assert pickle.loads(pickle.dumps(op)) == op


@pytest.mark.parametrize("cls", [ReadOp, WriteOp])
def test_assigning_any_field_is_refused(cls):
    op = cls(1.0)
    for f in fields(op):
        with pytest.raises(FrozenInstanceError):
            setattr(op, f.name, 2.0)
        with pytest.raises(FrozenInstanceError):
            delattr(op, f.name)
    assert op == cls(1.0)


def test_the_repr_is_the_dataclass_repr():
    assert repr(ReadOp(1.0)) == "ReadOp(time=1.0, reader=None, key=None)"
    assert (
        repr(WriteOp(2.0, writer="p0001"))
        == "WriteOp(time=2.0, value=None, writer='p0001', key=None)"
    )
