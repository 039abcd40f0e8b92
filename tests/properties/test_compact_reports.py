"""A judged report keeps its verdicts compactly, and reads as the lists
it replaces.

Two compact forms, each held to the plain form it replaced:

* *Latency samples.*  ``LivenessReport.latencies[kind]`` is a
  :class:`~repro.core.checker.LatencySamples`: a run of born-complete
  operations is a count of the shared zero.  The reference is
  ``reference_liveness`` (``tests/properties/test_checker_equivalence.py``),
  the liveness rule spelled out on the handles, whose samples are a
  list of ``op.latency``.  Over histories mixing rows and handles, the
  samples equal that list element for element, ``percentile`` and
  ``summarize`` give bit-identical results on both, and ``merge`` — as
  the cluster merges its shards' reports — equals list concatenation.
  Directly, over any list of floats (the shared zero, ``-0.0``, NaN and
  ints among them), the samples built from it are that list object for
  object, and rank and summarize as it does.
* *Inversion witnesses.*  Over rows, the sweep keeps each witness's
  later row and each run's earlier row and write index.  The reference
  is the sweep it replaced (:func:`reference_inversions`): every witness
  pair as four columns, two reads and two write indexes.  Both must list
  the same inversions, over rows in and out of invocation order and
  over read handles.
"""

from __future__ import annotations

import math
import struct
from array import array
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import percentile, summarize
from repro.core.checker import (
    _ZERO,
    _INVOCATION_ORDER,
    Inversion,
    LatencySamples,
    LivenessChecker,
    LivenessReport,
    _handle_entries,
    _read_entries,
    find_new_old_inversions,
)
from repro.core.history import History
from repro.core.register import OP_READ
from tests.core.helpers import join, read, write
from tests.properties.test_checker_equivalence import reference_liveness

#: Every instant of a drawn history: ties on purpose.
GRID = [i / 2 for i in range(25)]
QUANTILES = [0.0, 1.0, 25.0, 50.0, 62.5, 90.0, 99.0, 100.0]


def bits(x):
    """What "the same float, bit for bit" compares."""
    return type(x), struct.pack("<d", x)


def outcome(function, *args):
    """``function(*args)`` as a comparable value: its result's bits (a
    :class:`~repro.analysis.stats.Summary` field by field), or the
    error's type and message (``statistics.stdev`` of an infinity fails
    inside the standard library; it must fail alike on both)."""
    try:
        result = function(*args)
    except Exception as error:
        return type(error), str(error)
    if isinstance(result, (int, float)):
        return bits(result)
    return (result.count, *map(bits, (result.mean, result.stdev,
                                      result.minimum, result.maximum)))


def assert_reads_as(samples, expected: list) -> None:
    """``samples`` iterates, indexes, compares and ranks as ``expected``."""
    assert len(samples) == len(expected)
    assert samples == expected and expected == samples
    assert not samples != expected
    for mine, theirs in zip(samples, expected):
        assert mine == theirs or (mine != mine and theirs != theirs)
        assert bits(mine) == bits(theirs)
        assert (mine is _ZERO) == (theirs is _ZERO) or theirs == 0
    for index in range(-len(expected), len(expected)):
        assert bits(samples[index]) == bits(expected[index])
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            samples[index]
    assert samples[1:-1] == expected[1:-1]
    for q in QUANTILES:
        assert outcome(percentile, samples, q) == outcome(percentile, expected, q)
    assert outcome(summarize, samples) == outcome(summarize, expected)


# ----------------------------------------------------------------------
# Histories mixing rows and handles
# ----------------------------------------------------------------------


@st.composite
def mixed_history(draw) -> History:
    """Serialized writes, joins, read handles — some born complete, some
    pending or abandoned — and runs of read rows between them, every
    instant on :data:`GRID`."""
    history = History("v0")
    values = ["v0"]
    readers = ["p0", "p1", "p2"]
    cursor = 0
    for step in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(["rows", "rows", "write", "read", "join"]))
        start = draw(st.integers(min_value=cursor, max_value=len(GRID) - 1))
        end = draw(st.integers(min_value=start, max_value=len(GRID) - 1))
        fate = draw(st.sampled_from(["done", "done", "pending", "abandoned"]))
        if kind == "rows":
            for _ in range(draw(st.integers(min_value=1, max_value=5))):
                history.record_read(
                    GRID[draw(st.integers(min_value=cursor, max_value=len(GRID) - 1))],
                    draw(st.sampled_from(readers)),
                    None,
                    draw(st.sampled_from(values)),
                )
        elif kind == "write":
            value = f"w{step}"
            values.append(value)
            if fate == "done":
                write(history, value, GRID[start], GRID[end])
                cursor = end
            else:
                write(history, value, GRID[start], None, abandoned=fate == "abandoned")
                cursor = start
        elif kind == "read":
            handle = read(
                history,
                draw(st.sampled_from(values)),
                GRID[start],
                GRID[end] if fate == "done" else None,
                pid=draw(st.sampled_from(readers)),
            )
            if fate == "abandoned":
                handle._abandon(time=GRID[end])
        else:
            handle = join(history, draw(st.sampled_from(values)), step, GRID[start],
                          GRID[end] if fate == "done" else None)
            if fate == "abandoned":
                handle._abandon(time=GRID[end])
    history.close(GRID[-1] + draw(st.sampled_from([0.0, 2.0, 10.0])))
    return history


@given(history=mixed_history(), grace=st.sampled_from([0.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_the_samples_are_the_reference_list(history, grace):
    fast = LivenessChecker(history, grace=grace).check()
    reference = reference_liveness(history, grace)
    assert list(fast.latencies) == list(reference.latencies)
    for kind, samples in fast.latencies.items():
        assert isinstance(samples, LatencySamples)
        assert_reads_as(samples, reference.latencies[kind])
    # A row and a born-complete handle share the one zero; a row is a
    # read, so its run is among the read samples.
    rows = len(history._times)
    zeros = sum(sample is _ZERO for sample in fast.latencies.get(OP_READ, ()))
    assert zeros >= rows
    assert fast == reference


@given(histories=st.lists(mixed_history(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_merged_samples_are_the_concatenated_lists(histories):
    merged = LivenessReport()
    expected: dict[str, list] = {}
    for history in histories:  # as ``check_cluster_liveness`` merges shards
        merged.merge(LivenessChecker(history, grace=3.0).check())
        for kind, samples in reference_liveness(history, 3.0).latencies.items():
            expected.setdefault(kind, []).extend(samples)
    assert list(merged.latencies) == list(expected)
    for kind, samples in merged.latencies.items():
        assert isinstance(samples, LatencySamples)
        assert_reads_as(samples, expected[kind])


# ----------------------------------------------------------------------
# Any list of samples
# ----------------------------------------------------------------------

SAMPLE = st.one_of(
    st.just(_ZERO),
    st.just(_ZERO),
    st.just(-0.0),
    st.just(0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=3),
)


@given(expected=st.lists(SAMPLE, max_size=40), cuts=st.lists(st.integers(0, 40)))
@settings(max_examples=400, deadline=None)
def test_samples_built_from_a_list_are_that_list(expected, cuts):
    appended = LatencySamples()
    for sample in expected:
        appended.append(sample)
    # The same list as merged pieces, cut anywhere, a run split too.
    merged = LatencySamples()
    start = 0
    for stop in sorted({min(cut, len(expected)) for cut in cuts}) + [len(expected)]:
        merged.extend(LatencySamples(expected[start:stop]))
        start = stop
    for samples in (appended, merged, LatencySamples(expected)):
        assert all(mine is theirs for mine, theirs in zip(samples, expected))
        assert all(samples[i] is expected[i] for i in range(len(expected)))
        assert_reads_as(samples, expected)
    doubled = LatencySamples(expected)
    doubled.extend(doubled)
    assert doubled == expected + expected


def test_a_run_is_a_count_not_a_slot():
    samples = LatencySamples()
    samples.add_zeros(76_806)
    samples.append(2.5)
    samples.add_zeros(3)
    assert len(samples) == 76_810 and samples._values == [2.5]
    assert list(samples._ends) == [76_806, 76_810]
    assert samples[76_806] == 2.5 and samples[-1] is _ZERO
    assert percentile(samples, 100.0) == 2.5 and percentile(samples, 0.0) is _ZERO
    assert samples != [0.0] * 76_810 and samples != tuple(samples)


# ----------------------------------------------------------------------
# Inversion witnesses
# ----------------------------------------------------------------------


def reference_inversions(history: History) -> list[Inversion]:
    """The sweep the runs replaced: every witness pair's two reads and
    two write indexes in four columns — its rows' views over rows in
    invocation order, else over the read handles (sorted first if they
    are out of order)."""
    written = history.value_to_write().get
    if history._times and not history._by_kind.get(OP_READ):
        earlier, later = array("q"), array("q")
        swept = _four_column_sweep(_read_entries(history), written, earlier, later)
        if swept is not None:
            view = history._row_view
            return [Inversion(view(e), view(lt), ei, li)
                    for e, lt, ei, li in zip(earlier, later, *swept)]
    reads = history.of_kind(OP_READ)
    for ordered in (reads, sorted(reads, key=_INVOCATION_ORDER)):
        earlier, later = [], []
        swept = _four_column_sweep(_handle_entries(ordered), written, earlier, later)
        if swept is not None:
            return list(map(Inversion, earlier, later, *swept))
    raise AssertionError("sorted reads are in invocation order")


def _four_column_sweep(entries, written, earlier, later):
    earlier_indexes = array("q")
    later_indexes = array("q")
    in_flight = []
    best = None
    best_idx = -1
    last_invoked = float("-inf")
    last_id = -1
    for response, invoked, op_id, returned, read_ in entries:
        if response is None:
            continue
        record = written(returned)
        if record is None:
            continue
        if invoked <= last_invoked and (invoked < last_invoked or op_id < last_id):
            return None
        last_invoked = invoked
        last_id = op_id
        while in_flight and in_flight[0][0] < invoked:
            _, _, candidate_idx, candidate = heappop(in_flight)
            if candidate_idx > best_idx:
                best_idx = candidate_idx
                best = candidate
        later_idx = record.index
        if best_idx > later_idx:
            earlier.append(best)
            later.append(read_)
            earlier_indexes.append(best_idx)
            later_indexes.append(later_idx)
        heappush(in_flight, (response, op_id, later_idx, read_))
    return earlier_indexes, later_indexes


def shown(inversion: Inversion) -> tuple:
    def op(handle):
        return (handle.op_id, handle.kind, handle.process_id, handle.key,
                repr(handle.invoke_time), repr(handle.response_time),
                handle.response_time is handle.invoke_time, handle.result)

    return (op(inversion.earlier), op(inversion.later),
            inversion.earlier_write_index, inversion.later_write_index)


@st.composite
def read_history(draw) -> History:
    """Serialized writes and reads of their values on :data:`GRID`: as
    rows (in invocation order or not) or as read handles."""
    history = History("v0")
    values = ["v0"]
    cursor = 0
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        start = draw(st.integers(min_value=cursor, max_value=len(GRID) - 1))
        end = draw(st.integers(min_value=start, max_value=len(GRID) - 1))
        values.append(f"w{i}")
        write(history, values[-1], GRID[start], GRID[end])
        cursor = end
    reads = [
        (draw(st.integers(min_value=0, max_value=len(GRID) - 1)),
         draw(st.sampled_from(values + ["junk"])),
         draw(st.sampled_from(["p0", "p1", "p2"])))
        for _ in range(draw(st.integers(min_value=0, max_value=30)))
    ]
    arm = draw(st.sampled_from(["rows in order", "rows", "handles"]))
    if arm == "rows in order":
        reads.sort(key=lambda entry: entry[0])
    for at, value, pid in reads:
        if arm == "handles":
            span = draw(st.integers(min_value=0, max_value=3))
            read(history, value, GRID[at], GRID[min(at + span, len(GRID) - 1)], pid=pid)
        else:
            history.record_read(GRID[at], pid, None, value)
    history.close(GRID[-1])
    return history


@given(history=read_history())
@settings(max_examples=400, deadline=None)
def test_the_witness_runs_are_the_four_columns(history):
    found = find_new_old_inversions(history).inversions
    expected = reference_inversions(history)
    assert len(found) == len(expected)
    assert [shown(inv) for inv in found] == [shown(inv) for inv in expected]
    for position in range(-len(expected), len(expected)):
        assert shown(found[position]) == shown(expected[position])
    with pytest.raises(IndexError):
        found[len(expected)]


def test_a_run_keeps_its_earlier_read_once():
    """Ten later reads inverted against one earlier read: one run."""
    history = History("v0")
    write(history, "v1", 1.0, 2.0)
    write(history, "v2", 3.0, 20.0)
    history.record_read(4.0, "p0", None, "v2")  # reads the concurrent write
    for k in range(10):
        history.record_read(5.0 + k, f"p{k + 1}", None, "v1")
    history.close(30.0)
    found = find_new_old_inversions(history).inversions
    assert len(found) == 10
    assert list(found._starts) == [0] and list(found._earlier) == [0]
    assert list(found._later) == list(range(1, 11))
    assert {(inv.earlier.process_id, inv.earlier_write_index, inv.later_write_index)
            for inv in found} == {("p0", 2, 1)}
    assert math.isclose(found[-1].later.invoke_time, 14.0)
