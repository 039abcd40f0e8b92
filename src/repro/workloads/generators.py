"""Workload plan generators.

The paper's synchronous protocol is explicitly "targeted for
applications where the number of reads outperforms the number of
writes" (Section 3.3), so the canonical workload here is read-heavy:
periodic writes with a Poisson stream of reads from random active
processes.  All generators are pure functions from parameters (plus an
explicit RNG) to a plan — no hidden state, fully reproducible.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import replace
from itertools import accumulate
from math import isfinite
from typing import Any, Callable, Sequence

from ..sim.clock import Time
from ..sim.errors import ExperimentError
from .schedule import ReadOp, WorkloadOp, WriteOp

#: A key picker: draws the register key the next operation addresses.
KeyPicker = Callable[[], Any]


def _require_finite(**params: float) -> None:
    """Refuse a NaN / infinite plan parameter by name, where it enters:
    three layers down it is a loop that never ends (``expovariate(inf)``
    is 0.0, ``nan >= end`` is false) or an ``int()`` conversion error."""
    for name, value in params.items():
        if not isfinite(value):
            raise ExperimentError(f"{name} must be finite, got {value!r}")


def periodic_times(start: Time, period: Time, count: int) -> list[Time]:
    """``count`` instants spaced ``period`` apart, starting at ``start``."""
    _require_finite(start=start, period=period)
    if period <= 0:
        raise ExperimentError(f"period must be positive, got {period!r}")
    if count < 0:
        raise ExperimentError(f"count must be non-negative, got {count!r}")
    return [start + i * period for i in range(count)]


def poisson_times(
    start: Time, end: Time, rate: float, rng: random.Random
) -> list[Time]:
    """A Poisson arrival process of intensity ``rate`` on ``[start, end)``."""
    _require_finite(start=start, end=end, rate=rate)
    if rate < 0:
        raise ExperimentError(f"rate must be non-negative, got {rate!r}")
    if end < start:
        raise ExperimentError(f"end {end!r} precedes start {start!r}")
    times = []
    t = start
    if rate == 0:
        return times
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return times
        times.append(t)


def periodic_writes(
    start: Time, period: Time, count: int, writer: str | None = None
) -> list[WorkloadOp]:
    """``count`` serialized writes, one every ``period`` time units.

    Values are left to the system's unique-value generator, keeping the
    history checkable.
    """
    return [WriteOp(time=t, writer=writer) for t in periodic_times(start, period, count)]


def poisson_reads(
    start: Time, end: Time, rate: float, rng: random.Random
) -> list[WorkloadOp]:
    """Poisson reads by uniformly-drawn active processes."""
    return [ReadOp(time=t) for t in poisson_times(start, end, rate, rng)]


def read_heavy_plan(
    start: Time,
    end: Time,
    write_period: Time,
    read_rate: float,
    rng: random.Random,
    writer: str | None = None,
) -> list[WorkloadOp]:
    """The canonical Section 3.3 workload: many reads, few writes.

    Writes start half a period after ``start`` so the first reads
    exercise the initial value too.
    """
    _require_finite(start=start, end=end, write_period=write_period)
    if end <= start:
        raise ExperimentError(f"end {end!r} must exceed start {start!r}")
    if write_period <= 0:
        raise ExperimentError(
            f"write_period must be positive, got {write_period!r}"
        )
    write_count = max(0, int((end - start - write_period / 2) // write_period))
    plan: list[WorkloadOp] = []
    plan.extend(
        periodic_writes(start + write_period / 2, write_period, write_count, writer)
    )
    plan.extend(poisson_reads(start, end, read_rate, rng))
    plan.sort(key=lambda op: op.time)
    return plan


# ----------------------------------------------------------------------
# Key pickers (the RegisterSpace dimension)
# ----------------------------------------------------------------------


def uniform_key_picker(keys: Sequence[Any], rng: random.Random) -> KeyPicker:
    """Each operation addresses a uniformly random key."""
    if not keys:
        raise ExperimentError("uniform_key_picker needs at least one key")
    key_list = list(keys)
    return lambda: rng.choice(key_list)


def zipf_key_picker(
    keys: Sequence[Any], rng: random.Random, exponent: float = 1.2
) -> KeyPicker:
    """A Zipf-skewed picker: key ``i`` has weight ``1/(i+1)^exponent``.

    The realistic production shape — a few hot keys take most of the
    traffic while the long tail stays cold — used by the keyed-store
    experiment to show hot-key skew does not change per-key regularity.
    """
    if not keys:
        raise ExperimentError("zipf_key_picker needs at least one key")
    if exponent < 0:
        raise ExperimentError(f"exponent must be non-negative, got {exponent!r}")
    key_list = list(keys)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(key_list))]
    cumulative = list(accumulate(weights))
    total = cumulative[-1]

    last = len(key_list) - 1

    def pick() -> Any:
        # The high clamp mirrors random.choices: a draw in the top
        # half-ULP below 1.0 can round up to exactly ``total`` and
        # bisect one past the end.
        return key_list[min(bisect_right(cumulative, rng.random() * total), last)]

    return pick


KEY_DISTRIBUTIONS: dict[str, Callable[[Sequence[Any], random.Random], KeyPicker]] = {
    "uniform": uniform_key_picker,
    "zipf": zipf_key_picker,
}


def make_key_picker(
    distribution: str, keys: Sequence[Any], rng: random.Random
) -> KeyPicker:
    """Instantiate a named key distribution (``uniform`` or ``zipf``)."""
    try:
        factory = KEY_DISTRIBUTIONS[distribution]
    except KeyError:
        raise ExperimentError(
            f"unknown key distribution {distribution!r}; "
            f"choose from {sorted(KEY_DISTRIBUTIONS)}"
        ) from None
    return factory(keys, rng)


def assign_keys(plan: list[WorkloadOp], picker: KeyPicker) -> list[WorkloadOp]:
    """Stamp every planned operation with a key drawn from ``picker``.

    Draws in plan order (one draw per op), so a keyed plan is exactly
    as reproducible as its unkeyed base plan plus the picker's RNG.
    Single-register plans simply never call this — their ops keep
    ``key=None`` and the system behaves byte-identically to the
    pre-RegisterSpace library.
    """
    return [replace(op, key=picker()) for op in plan]


def write_heavy_plan(
    start: Time,
    end: Time,
    write_period: Time,
    reads_per_write: int,
    rng: random.Random,
    writer: str | None = None,
) -> list[WorkloadOp]:
    """A stress variant: frequent writes with a few reads in between.

    Used by ablations to show where the fast-read design stops paying
    off (every write costs a broadcast + δ, reads stay free).
    """
    plan: list[WorkloadOp] = []
    t = start
    while t < end:
        plan.append(WriteOp(time=t, writer=writer))
        for _ in range(reads_per_write):
            offset = rng.uniform(0.0, write_period)
            if t + offset < end:
                plan.append(ReadOp(time=t + offset))
        t += write_period
    plan.sort(key=lambda op: op.time)
    return plan
