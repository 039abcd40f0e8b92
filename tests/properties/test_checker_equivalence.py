"""Fast checkers vs. the retained naive oracles.

The sub-quadratic regularity sweep and the O(R log R) inversion sweep
must agree with the brute-force reference implementations
(``paranoid=True``) on every verdict.  Three sources of histories:

* *synthetic* histories drawn by hypothesis — serialized writes with a
  tail of pending/abandoned writes, reads returning arbitrary written
  (or never-written) values, so both the accept and the reject paths
  are exercised with exact timestamps;
* *grid* histories drawn by hypothesis on the instants {0, 0.5, …, 6}
  over 1–3 keys, so reads start and end exactly where writes are
  invoked and respond — the tie edge of every bisection cut; the
  liveness checker is held to the rule spelled out on the handle's
  ``done`` / ``abandoned`` / ``latency`` on the same histories;
* *simulated* histories from fixed-seed churn runs, which add join
  adoptions, abandoned operations and realistic interleavings.

Regularity parity is exact (field-for-field identical judgements).
Inversion parity is on verdicts and on the set of inverted reads: the
fast sweep reports one witness pair per inverted read, while the naive
scan enumerates every pair, so the pair lists may legitimately differ
in size — but never in which reads are inverted, nor in
``is_atomic`` / ``is_regular_but_not_atomic``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import (
    LivenessChecker,
    LivenessReport,
    RegularityChecker,
    StuckOperation,
    find_new_old_inversions,
)
from repro.core.history import History
from repro.core.register import OP_JOIN
from repro.protocols.common import JoinResult, KeyedJoinResult
from repro.sim.operations import OperationHandle
from tests.conftest import make_system
from tests.core.helpers import join, read, write


# ----------------------------------------------------------------------
# Synthetic histories (hypothesis)
# ----------------------------------------------------------------------


@st.composite
def churny_history(draw) -> History:
    """A serialized-write history with reads, joins and ragged writes."""
    history = History("v0")
    write_count = draw(st.integers(min_value=0, max_value=8))
    cursor = 0.0
    values = ["v0"]
    for i in range(1, write_count + 1):
        start = cursor + draw(st.floats(min_value=0.1, max_value=4.0))
        fate = draw(st.sampled_from(["done", "done", "done", "pending", "abandoned"]))
        value = f"w{i}"
        values.append(value)
        if fate == "done":
            end = start + draw(st.floats(min_value=0.1, max_value=4.0))
            write(history, value, start, end)
            cursor = end
        elif fate == "pending":
            write(history, value, start, None)
            cursor = start
        else:
            write(history, value, start, None, abandoned=True)
            cursor = start
    horizon = cursor + 10.0
    read_count = draw(st.integers(min_value=0, max_value=12))
    for _ in range(read_count):
        invoke = draw(st.floats(min_value=0.0, max_value=horizon))
        duration = draw(st.floats(min_value=0.0, max_value=5.0))
        returned = draw(st.sampled_from(values + ["junk"]))
        read(history, returned, invoke, invoke + duration)
    join_count = draw(st.integers(min_value=0, max_value=3))
    for j in range(join_count):
        invoke = draw(st.floats(min_value=0.0, max_value=horizon))
        duration = draw(st.floats(min_value=0.1, max_value=5.0))
        adopted = draw(st.sampled_from(values))
        join(history, adopted, sequence=j, start=invoke, end=invoke + duration)
    history.close(horizon + 10.0)
    return history


def recorded(op) -> tuple:
    """What a history records of a judged operation."""
    return (op.op_id, op.kind, op.process_id, op.key, op.argument,
            op.invoke_time, op.response_time, op.result)


def assert_safety_parity(history: History, check_joins: bool = True) -> None:
    fast = RegularityChecker(history, check_joins=check_joins).check()
    naive = RegularityChecker(
        history, check_joins=check_joins, paranoid=True
    ).check()
    assert len(fast.judgements) == len(naive.judgements)
    for f, n in zip(fast.judgements, naive.judgements):
        # A settled operation is a view of its row: the same by op id
        # and by every field, not by identity.
        assert recorded(f.operation) == recorded(n.operation)
        assert f.returned == n.returned
        assert f.allowed == n.allowed
        assert f.valid == n.valid
        assert f.last_completed_index == n.last_completed_index
        assert f.explanation == n.explanation
    assert fast.is_safe == naive.is_safe
    assert fast.violation_count == naive.violation_count


def assert_atomicity_parity(history: History) -> None:
    fast = find_new_old_inversions(history)
    naive = find_new_old_inversions(history, paranoid=True)
    assert fast.safety.is_safe == naive.safety.is_safe
    assert fast.safety.violation_count == naive.safety.violation_count
    assert fast.is_atomic == naive.is_atomic
    assert fast.is_regular_but_not_atomic == naive.is_regular_but_not_atomic
    fast_inverted = {inv.later.op_id for inv in fast.inversions}
    naive_inverted = {inv.later.op_id for inv in naive.inversions}
    assert fast_inverted == naive_inverted
    naive_pairs = {(inv.earlier.op_id, inv.later.op_id) for inv in naive.inversions}
    for inv in fast.inversions:
        assert (inv.earlier.op_id, inv.later.op_id) in naive_pairs
        assert inv.earlier.response_time < inv.later.invoke_time
        assert inv.earlier_write_index > inv.later_write_index


class TestSyntheticEquivalence:
    @given(history=churny_history())
    @settings(max_examples=300, deadline=None)
    def test_regularity_parity(self, history):
        assert_safety_parity(history)

    @given(history=churny_history())
    @settings(max_examples=300, deadline=None)
    def test_atomicity_parity(self, history):
        assert_atomicity_parity(history)


# ----------------------------------------------------------------------
# Tie instants (hypothesis)
# ----------------------------------------------------------------------

#: Every instant of a grid history: {0, 0.5, ..., 6}.
GRID = [i / 2 for i in range(13)]
FATES = ["done", "done", "done", "pending", "abandoned"]


@st.composite
def grid_history(draw) -> History:
    """1–3 keys, ragged serialized writes, reads and join adoptions,
    every instant on :data:`GRID` — so reads start and end exactly on
    write invocations and responses, the ``<=`` / ``<`` edge of each
    of the three cuts."""
    key_count = draw(st.integers(min_value=1, max_value=3))
    keys = [None] if key_count == 1 else [f"k{i}" for i in range(key_count)]
    history = History("v0")
    values = {key: ["v0"] for key in keys}
    edges: list[int] = []  # grid positions of write invocations and responses
    for key in keys:
        cursor = 0
        for i in range(draw(st.integers(min_value=0, max_value=4))):
            start = draw(st.integers(min_value=cursor, max_value=12))
            fate = draw(st.sampled_from(FATES))
            value = f"{key}:w{i}"
            values[key].append(value)
            edges.append(start)
            if fate == "done":
                end = draw(st.integers(min_value=start, max_value=12))
                write(history, value, GRID[start], GRID[end], key=key)
                edges.append(end)
                cursor = end
            else:
                write(history, value, GRID[start], None,
                      abandoned=fate == "abandoned", key=key)
                cursor = start
    instant = st.integers(min_value=0, max_value=12)
    if edges:
        instant = st.one_of(st.sampled_from(edges), instant)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        key = draw(st.sampled_from(keys))
        start, end = sorted((draw(instant), draw(instant)))
        returned = draw(st.sampled_from(values[key] + ["junk"]))
        fate = draw(st.sampled_from(FATES))
        handle = read(history, returned, GRID[start],
                      GRID[end] if fate == "done" else None, key=key)
        if fate == "abandoned":
            handle._abandon(time=GRID[end])
    for sequence in range(draw(st.integers(min_value=0, max_value=3))):
        start, end = sorted((draw(instant), draw(instant)))
        adopted = {key: (draw(st.sampled_from(values[key])), sequence) for key in keys}
        fate = draw(st.sampled_from(FATES))
        handle = OperationHandle(OP_JOIN, "joiner", invoke_time=GRID[start])
        if fate == "done":
            result = (
                JoinResult(*adopted[None]) if keys == [None] else KeyedJoinResult(adopted)
            )
            handle._complete(result, time=GRID[end])
        elif fate == "abandoned":
            handle._abandon(time=GRID[end])
        history.record_operation(handle)
    history.close(draw(st.sampled_from([6.0, 7.5, 9.0])))
    return history


def reference_liveness(history: History, grace: float) -> LivenessReport:
    """The liveness rule spelled out on the handle's own accessors."""
    report = LivenessReport()
    for op in history:
        if op.done:
            report.completed += 1
            report.latencies.setdefault(op.kind, []).append(op.latency)
        elif op.abandoned:
            report.excused += 1
        else:
            age = history.horizon - op.invoke_time
            if age <= grace:
                report.in_grace += 1
            else:
                report.stuck.append(StuckOperation(operation=op, age=age))
    return report


class TestTieInstants:
    @given(history=grid_history())
    @settings(max_examples=300, deadline=None)
    def test_regularity_parity(self, history):
        assert_safety_parity(history)

    @given(history=grid_history())
    @settings(max_examples=300, deadline=None)
    def test_atomicity_parity(self, history):
        assert_atomicity_parity(history)

    @given(history=grid_history(), grace=st.sampled_from([0.0, 1.5, 3.0]))
    @settings(max_examples=300, deadline=None)
    def test_liveness_matches_the_reference(self, history, grace):
        fast = LivenessChecker(history, grace=grace).check()
        assert fast == reference_liveness(history, grace)


# ----------------------------------------------------------------------
# Simulated churn histories (fixed seeds)
# ----------------------------------------------------------------------


def run_churn_history(seed: int, protocol: str = "sync", n: int = 12) -> History:
    system = make_system(n=n, seed=seed, protocol=protocol, trace=False)
    system.attach_churn(rate=0.05)
    for _ in range(6):
        system.write()
        system.run_for(16.0)  # ES writes take up to 3δ; keep writes serialized
        for pid in system.active_pids()[:6]:
            system.read(pid)
        system.run_for(4.0)
    return system.close()


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
def test_simulated_history_regularity_parity(seed):
    history = run_churn_history(seed)
    assert history.joins(), "churn runs should exercise join adoptions"
    assert_safety_parity(history)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_simulated_history_atomicity_parity(seed):
    assert_atomicity_parity(run_churn_history(seed))


@pytest.mark.parametrize("seed", [0, 3])
def test_simulated_es_history_parity(seed):
    history = run_churn_history(seed, protocol="es", n=11)
    assert_safety_parity(history)
    assert_atomicity_parity(history)
