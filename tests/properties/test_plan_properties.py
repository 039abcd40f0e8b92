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

And ``read_heavy_plan`` returns a ``Plan`` — two columns, a default
read stored as its instant and ``None`` — built by merging the periodic
writes into the Poisson read instants.  The list builder it replaced,
kept below as the reference (writes, then reads, stably sorted by
time), must give the same ops op for op, by iteration and by index,
and leave its RNG in the same state; a write tied with a read fires
first.  A ``Plan`` installed and its ``list(plan)`` installed drive
twin systems to the same history, counters and next sequence number.
"""

from __future__ import annotations

import pickle
import random
import sys
from dataclasses import FrozenInstanceError, field, fields, make_dataclass, replace
from math import log
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import operation_digest
from repro.sim.engine import EventScheduler
from repro.workloads.generators import poisson_times, read_heavy_plan
from repro.workloads.schedule import (
    Plan,
    ReadOp,
    WorkloadDriver,
    WriteOp,
    install_series,
)
from tests.conftest import make_system


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


# ----------------------------------------------------------------------
# A plan is columns, and the list it replaced
# ----------------------------------------------------------------------


def reference_read_heavy_plan(
    start: float,
    end: float,
    write_period: float,
    read_rate: float,
    rng: random.Random,
    writer: str | None = None,
) -> list:
    """``read_heavy_plan`` as it was: the writes, then the reads, as
    one list of op objects, sorted stably by time."""
    write_count = max(0, int((end - start - write_period / 2) // write_period))
    first = start + write_period / 2
    plan = [
        WriteOp(time=first + i * write_period, writer=writer)
        for i in range(write_count)
    ]
    plan.extend(map(ReadOp, reference_poisson_times(start, end, read_rate, rng)))
    plan.sort(key=lambda op: op.time)
    return plan


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    start=st.floats(-1e4, 1e4, allow_nan=False),
    span=st.floats(0.01, 50.0, allow_nan=False),
    rate=st.one_of(st.just(0.0), st.floats(1e-3, 40.0)),
    write_period=st.floats(0.05, 60.0, allow_nan=False),
    writer=st.none() | st.just("p0001"),
)
def test_the_columns_are_the_list_plan_op_for_op(
    seed, start, span, rate, write_period, writer
):
    end = start + span
    rng, reference_rng = random.Random(seed), random.Random(seed)
    plan = read_heavy_plan(start, end, write_period, rate, rng, writer)
    expected = reference_read_heavy_plan(
        start, end, write_period, rate, reference_rng, writer
    )
    assert isinstance(plan, Plan) and len(plan) == len(expected)
    assert list(plan) == expected
    assert list(map(repr, plan)) == list(map(repr, expected))
    assert [plan[k] for k in range(len(plan))] == expected
    if expected:
        assert plan[-1] == expected[-1]
    assert rng.getstate() == reference_rng.getstate()


def test_a_write_tied_with_a_read_fires_first():
    """The first read lands exactly on the first write's instant: the
    write period is twice the first Poisson gap, so both sit at that
    gap."""
    seed, rate = 7, 2.0
    gap = -log(1.0 - random.Random(seed).random()) / rate
    plan = read_heavy_plan(0.0, 4.0 * gap, 2.0 * gap, rate, random.Random(seed))
    expected = reference_read_heavy_plan(
        0.0, 4.0 * gap, 2.0 * gap, rate, random.Random(seed)
    )
    assert list(plan)[:2] == expected[:2] == [WriteOp(time=gap), ReadOp(time=gap)]
    engine, fired = EventScheduler(), []
    install_series(engine, plan, fired.append)
    engine.run()
    assert fired[:2] == [WriteOp(time=gap), None]
    assert len(fired) == len(plan)


def _driven(plan_of, seed: int):
    """A churned sync system driven through ``plan_of(plan)``: its
    digest, its engine's counters and the sequence of what comes next."""
    system = make_system(n=12, seed=seed, trace=False)
    system.attach_churn(rate=0.02)
    plan = read_heavy_plan(
        1.0, 40.0, 10.0, 3.0, system.rng.stream("test.plan")
    )
    WorkloadDriver(system).install(plan_of(plan))
    system.run_until(50.0)
    engine = system.engine
    counters = (engine.fired_count, engine.pending_count)
    following = engine.schedule_at(engine.now + 1.0, print).sequence
    return operation_digest(system.close()), counters, following


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_a_plan_and_its_list_drive_twin_systems_alike(seed):
    assert _driven(lambda plan: plan, seed) == _driven(list, seed)
