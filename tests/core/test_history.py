"""Unit tests for operation histories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import History
from repro.sim.errors import HistoryError
from tests.core.helpers import read, write


class TestRecording:
    def test_operations_accumulate(self):
        history = History("v0")
        write(history, "v1", 0.0, 1.0)
        read(history, "v1", 2.0, 2.0)
        assert len(history) == 2
        assert len(history.writes()) == 1
        assert len(history.reads()) == 1
        assert len(history.joins()) == 0

    def test_departures(self):
        history = History("v0")
        history.record_departure("p3", 7.0)
        assert history._departures.get("p3") == 7.0
        assert history._departures.get("p4") is None

    def test_close_freezes_horizon(self):
        history = History("v0")
        assert history.horizon is None
        history.close(100.0)
        assert history.horizon == 100.0


class TestWriteRecords:
    def test_initial_value_is_write_zero(self):
        history = History("v0")
        records = history.write_records()
        assert len(records) == 1
        assert records[0].index == 0
        assert records[0].value == "v0"
        assert records[0].completed_before(0.0)

    def test_serialized_writes_are_indexed_in_order(self):
        history = History("v0")
        write(history, "v2", 5.0, 6.0)  # recorded first but invoked later
        write(history, "v1", 1.0, 2.0)
        records = history.write_records()
        values = [r.value for r in records]
        assert values == ["v0", "v1", "v2"]

    def test_overlapping_writes_rejected(self):
        history = History("v0")
        write(history, "v1", 1.0, 5.0)
        write(history, "v2", 3.0, 7.0)
        with pytest.raises(HistoryError, match="writes overlap"):
            history.write_records()

    def test_pending_write_stays_concurrent_forever(self):
        history = History("v0")
        record = write(history, "v1", 1.0, None)
        assert record.pending
        [_, rec] = history.write_records()
        assert not rec.completed
        assert rec.concurrent_with(100.0, 200.0)
        assert not rec.concurrent_with(0.0, 0.5)  # before its invocation

    def test_abandoned_write_stays_concurrent_forever(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0, abandoned=True)
        [_, rec] = history.write_records()
        assert rec.abandoned
        assert not rec.completed
        assert rec.concurrent_with(50.0, 60.0)

    def test_completed_before_boundary(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        [_, rec] = history.write_records()
        assert rec.completed_before(2.0)
        assert not rec.completed_before(1.9)

    def test_concurrency_window(self):
        history = History("v0")
        write(history, "v1", 10.0, 20.0)
        [_, rec] = history.write_records()
        assert rec.concurrent_with(15.0, 16.0)  # inside
        assert rec.concurrent_with(5.0, 10.0)  # touches start
        assert rec.concurrent_with(19.0, 30.0)  # overlaps end
        assert not rec.concurrent_with(20.0, 30.0)  # starts at completion
        assert not rec.concurrent_with(0.0, 9.0)  # before


class TestValueMapping:
    def test_value_to_write(self):
        history = History("v0")
        write(history, "v1", 1.0, 2.0)
        mapping = history.value_to_write()
        assert mapping["v0"].index == 0
        assert mapping["v1"].index == 1

    def test_duplicate_values_rejected(self):
        history = History("v0")
        write(history, "dup", 1.0, 2.0)
        write(history, "dup", 3.0, 4.0)
        with pytest.raises(HistoryError, match="written twice"):
            history.value_to_write()

    def test_initial_value_collision_rejected(self):
        history = History("v0")
        write(history, "v0", 1.0, 2.0)
        with pytest.raises(HistoryError, match="written twice"):
            history.value_to_write()


class TestOperationFilters:
    def test_operations_by_kind(self):
        history = History("v0")
        write(history, "v1", 0.0, 1.0)
        read(history, "v1", 2.0, 2.0)
        read(history, "v1", 3.0, 3.0)
        assert len(history.operations("read")) == 2
        assert len(history.operations("write")) == 1
        assert len(history.operations()) == 3
        assert len(history.operations("join")) == 0

    def test_iteration_preserves_recording_order(self):
        history = History("v0")
        w = write(history, "v1", 0.0, 1.0)
        r = read(history, "v1", 2.0, 2.0)
        assert [op.op_id for op in history] == [w.op_id, r.op_id]

    def test_of_kind_is_a_list_of_its_own_in_recording_order(self):
        history = History("v0")
        assert len(history.of_kind("read")) == 0
        first = read(history, "v0", 1.0, 1.0)
        view = history.of_kind("read")
        assert [op.op_id for op in view] == [first.op_id]
        assert history.of_kind("read") is not view
        second = read(history, "v0", 2.0, 2.0)
        assert len(view) == 1
        assert [op.op_id for op in history.reads()] == [first.op_id, second.op_id]


class TestKeysAreMemoizedWhileClosed:
    def test_an_open_history_recomputes(self):
        history = History("v0")
        read(history, "v0", 1.0, 1.0)
        assert history.keys() == [None] and history.keys() is not history.keys()

    def test_a_closed_history_shares_until_it_changes(self):
        history = History("v0")
        history.record_operation(_keyed("read", "b", 1.0))
        history.close(10.0)
        keys = history.keys()
        assert keys == ["b"] and history.keys() is keys
        history.record_operation(_keyed("write", "a", 2.0))
        assert history.keys() == ["a", "b"]
        shared = history.keys()
        history.close(10.0)  # same horizon: kept
        assert history.keys() is shared
        history.close(20.0)
        assert history.keys() == shared and history.keys() is not shared


def _keyed(kind, key, time):
    from repro.sim.operations import OperationHandle

    handle = OperationHandle(kind, "p", invoke_time=time, argument=f"w{time}", key=key)
    handle._complete("ok", time=time)
    return handle


#: Text ``repr`` has to escape or keeps as is: quotes, a backslash,
#: control characters and non-ASCII.
_AWKWARD_TEXT = st.text(alphabet="ab '\"\\\n\t\x00é✓", max_size=5)
_INSTANTS = st.sampled_from(
    [0, 1, 2, 0.0, -0.0, 1.0, 2.5, float("inf"), float("-inf")]
)


def _equal_twins(instant):
    """Fresh objects equal to ``instant`` — some with another repr."""
    twins = [instant * 1.0]  # a new float object, even for a float
    if instant == 0:
        twins.append(-(instant * 1.0))  # 0.0 <-> -0.0
    if instant not in (float("inf"), float("-inf")):
        twins.append(int(instant))
    return twins


@st.composite
def _digest_operation(draw):
    from repro.sim.operations import OperationHandle

    invoke = draw(_INSTANTS)
    kind = draw(st.sampled_from(["read", "write", "join"]))
    # The register's read and join take no argument: a row keeps a write's.
    argument = st.one_of(st.none(), st.integers(-3, 3), _AWKWARD_TEXT)
    handle = OperationHandle(
        kind,
        draw(_AWKWARD_TEXT),
        invoke_time=invoke,
        argument=draw(argument) if kind == "write" else None,
        key=draw(st.one_of(st.none(), _AWKWARD_TEXT)),
    )
    fate = draw(st.sampled_from(["itself", "twin", "other", "pending"]))
    if fate == "itself":
        handle._complete("ok", time=invoke)
    elif fate == "twin":
        handle._complete("ok", time=draw(st.sampled_from(_equal_twins(invoke))))
    elif fate == "other":
        handle._complete("ok", time=draw(_INSTANTS))
    return handle


class TestOperationDigest:
    """The hash is fed a slice of rows at a time; the bytes must be
    those of one ``repr`` of the whole row list."""

    @staticmethod
    def whole_blob_digest(history):
        """One ``repr`` of the row list, times as the history stores
        them: as ``float`` (a live handle still holds what it was given)."""
        import hashlib

        def stored(time):
            return None if time is None else float(time)

        rows = [
            (op.kind, op.process_id, stored(op.invoke_time), stored(op.response_time),
             str(op.argument))
            if op.key is None
            else (op.kind, op.key, op.process_id, stored(op.invoke_time),
                  stored(op.response_time), str(op.argument))
            for op in history
        ]
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    @pytest.mark.parametrize("extra", [-1, 0, 1, 7])
    @pytest.mark.parametrize("slices", [0, 1, 3])
    def test_digest_is_the_hash_of_the_whole_repr(self, slices, extra):
        from repro.core.history import _DIGEST_ROWS, operation_digest

        history = History("v0")
        for k in range(max(0, slices * _DIGEST_ROWS + extra)):
            if k % 5 == 0:
                history.record_operation(_keyed("read", f"k{k % 3}é", float(k)))
            elif k % 7 == 0:
                write(history, f"w{k}", float(k), None)  # pending: None in the row
            else:
                read(history, "v0", float(k), float(k) + 0.25)
        assert operation_digest(history) == self.whole_blob_digest(history)

    @given(operations=st.lists(_digest_operation(), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_digest_is_the_hash_of_the_rows_repr(self, operations):
        """Row by row, field by field: the same bytes as ``repr(rows)``
        for times that are equal yet print differently (``1`` / ``1.0``,
        ``0.0`` / ``-0.0``), a response that is or only equals its
        invocation, pending responses and text that ``repr`` escapes."""
        from repro.core.history import operation_digest

        history = History("v0")
        for handle in operations:
            history.record_operation(handle)
        assert operation_digest(history) == self.whole_blob_digest(history)

    @given(
        entries=st.lists(
            st.one_of(
                _digest_operation(),
                st.tuples(
                    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("inf")]),
                    _AWKWARD_TEXT,
                    st.one_of(st.none(), _AWKWARD_TEXT),
                ),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_hash_as_the_handles_they_view(self, entries):
        """Rows among handles: each row's text is its handle view's, in
        recording order."""
        from repro.core.history import operation_digest

        history = History("v0")
        for entry in entries:
            if isinstance(entry, tuple):
                history.record_read(*entry, "v0")
            else:
                history.record_operation(entry)
        assert len(history) == len(entries)
        assert operation_digest(history) == self.whole_blob_digest(history)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_a_run_of_rows_crosses_the_hash_slices(self, extra):
        from repro.core.history import _DIGEST_ROWS, operation_digest

        history = History("v0")
        write(history, "w1", 0.0, 0.5)
        for k in range(2 * _DIGEST_ROWS + extra):
            history.record_read(1.0 + k, f"p{k % 7}", None if k % 3 else "k", "w1")
        write(history, "w2", 9e9, None)
        assert operation_digest(history) == self.whole_blob_digest(history)


class TestReadRows:
    """A complete local read nothing waits on is a row of the history's
    columns, seen as its handle view in recording order."""

    def test_rows_and_handles_keep_their_recording_order(self):
        from repro.sim.operations import OperationHandle

        history = History("v0", shard=2)
        history.record_read(1.0, "p1", None, "v0")
        first = write(history, "w1", 2.0, None)
        history.record_read(3.0, "p2", None, "v0")
        history.record_read(3.0, "p3", None, "w1")
        kept = read(history, "w1", 4.0, 4.0)
        history.record_read(5.0, "p1", None, "w1")
        ops = list(history)
        assert len(history) == len(ops) == 6
        assert [op.kind for op in ops] == ["read", "write"] + ["read"] * 4
        # In flight, the write is its live handle; the read that settled
        # before it was recorded is a view of its row.
        assert ops[1] is first and ops[4] is not kept
        assert (ops[4].op_id, ops[4].result, ops[4].invoke_time) == (kept.op_id, "w1", 4.0)
        assert [op.op_id for op in ops] == sorted(op.op_id for op in ops)
        view = ops[3]
        assert isinstance(view, OperationHandle) and view.done and not view.pending
        assert (view.process_id, view.key, view.result) == ("p3", None, "w1")
        assert view.shard == 2
        assert view.response_time is view.invoke_time == 3.0 and view.latency == 0.0
        assert view.argument is None and view._callbacks == ()
        assert [op.process_id for op in history.of_kind("read")] == [
            "p1", "p2", "p3", "reader", "p1"
        ]
        assert history.writes() == [first] and history.of_kind("write") == [first]
        first._complete("ok", time=6.0)  # the row fills in; the handle goes
        assert history.writes()[0] is not first and not history._pending
        assert history.writes()[0].response_time == 6.0

    def test_a_sub_history_keeps_its_keys_rows_as_rows(self):
        history = History("v0", shard=1)
        write(history, "a1", 0.0, 1.0, key="a")
        history.record_read(2.0, "p1", "a", "a1")
        history.record_read(2.5, "p2", "b", "v0")
        history.record_read(3.0, "p3", "a", "a1")
        history.close(10.0)
        assert history.keys() == ["a", "b"]
        sub = history.sub_history("a")
        assert len(sub) == 3 and sub.count("read") == 2
        assert [op.kind for op in sub] == ["write", "read", "read"]
        reads = sub.reads()
        assert [(op.process_id, op.shard) for op in reads] == [("p1", 1), ("p3", 1)]
        assert [op.op_id for op in sub.reads()] == [
            op.op_id for op in history.reads() if op.key == "a"
        ]

    def test_the_key_column_fills_in_at_the_first_keyed_row(self):
        history = History("v0")
        history.record_read(1.0, "p1", None, "v0")
        history.record_read(2.0, "p2", None, "v0")
        assert history._keys == [] and list(history._procs) == [0, 1]
        history.record_read(3.0, "p1", "k", "v0")
        history.record_read(4.0, "p3", None, "v0")
        assert history._keys == [None, None, "k", None]
        assert list(history._procs) == [0, 1, 0, 2]
        assert history._pids == ["p1", "p2", "p3"]
        assert [(op.process_id, op.key) for op in history] == [
            ("p1", None), ("p2", None), ("p1", "k"), ("p3", None)
        ]
        history.close(5.0)
        assert history.keys() == [None, "k"]
        unkeyed, keyed = history.sub_history(None), history.sub_history("k")
        assert unkeyed._keys == [] and keyed._keys == ["k"]
        assert [op.process_id for op in unkeyed] == ["p1", "p2", "p3"]
        assert [(op.process_id, op.key, op.invoke_time) for op in keyed] == [
            ("p1", "k", 3.0)
        ]


class TestInFlight:
    """A handle is held while its operation is in flight and fills its
    row in when it settles: a history still open shows the outcome."""

    @staticmethod
    def shown(history):
        from repro.core.checker import (
            LivenessChecker,
            RegularityChecker,
            find_new_old_inversions,
        )
        from repro.core.history import operation_digest

        safety = RegularityChecker(history).check()
        atomicity = find_new_old_inversions(history)
        return (
            [(op.op_id, op.kind, op.done, op.abandoned, op.response_time,
              op.result if op.done else None) for op in history],
            operation_digest(history),
            (safety.checked_count, safety.violation_count),
            (atomicity.safety.checked_count, len(atomicity.inversions)),
            history.write_records()[-1].response_time,
        )

    def test_an_open_history_shows_what_its_handles_settled_to(self):
        from repro.core.checker import LivenessChecker
        from repro.protocols.common import JoinResult
        from tests.core.helpers import join

        history = History("v0")
        read(history, "v1", 9.0, 10.0)  # settled before it was recorded
        writing = write(history, "v1", 1.0, None)
        reading = read(history, "v1", 3.0, None)
        joining = join(history, "v1", 0, 3.5, None)
        leaving = read(history, "v0", 4.0, None)
        before = self.shown(history)
        assert before[2] == (1, 0)  # the settled read only; the join is in flight
        writing._complete("ok", time=2.0)
        reading._complete("v1", time=5.0)
        joining._complete(JoinResult("v1", 1), time=6.0)
        leaving._abandon(time=7.0)
        assert not history._pending and history.horizon is None
        # The same handles recorded once settled: the reference rows.
        settled = History("v0")
        for op in (list(history)[0], writing, reading, joining, leaving):
            settled.record_operation(op)
        after = self.shown(history)
        assert after == self.shown(settled) != before
        assert after[2] == (3, 0) and after[-1] == 2.0
        history.close(20.0)
        settled.close(20.0)
        live = LivenessChecker(history, grace=1.0).check()
        assert (live.completed, live.excused, live.in_grace, live.stuck) == (4, 1, 0, [])
        assert live == LivenessChecker(settled, grace=1.0).check()

    def test_a_second_history_settles_without_touching_the_first(self):
        first, second = History("v0"), History("v0")
        write(first, "v1", 1.0, 2.0)
        pending = read(first, "v1", 3.0, None)
        second.record_operation(pending)
        assert pending._row == (first, 1)  # the first history's row
        pending._complete("v1", time=4.0)
        assert not first._pending and len(second._pending) == 1
        [view] = second.reads()  # read: the second settles its row
        assert not second._pending and (view.result, view.response_time) == ("v1", 4.0)
        assert [(op.kind, op.response_time) for op in first] == [
            ("write", 2.0), ("read", 4.0)
        ]

    def test_an_open_cluster_view_does_not_corrupt_its_shard(self):
        from repro.cluster import ClusterConfig, ClusterSystem
        from repro.cluster.history import ClusterHistory
        from repro.core.history import operation_digest

        cluster = ClusterSystem(ClusterConfig(shards=2, keys=2, n=8, seed=3))
        key = cluster.keys[0]
        cluster.run_for(1.0)
        handle = cluster.write("x", key=key)
        shard = handle.shard
        merged = ClusterHistory([s.history for s in cluster.shards])
        view = merged.shard_view(shard)
        seam = merged.seam_view(key)
        assert handle.pending and any(op is handle for op in view)
        cluster.run_for(20.0)
        own = cluster.shards[shard].history
        assert handle.done and not own._pending
        for other in (view, seam):
            [write_op] = other.writes()
            assert (write_op.op_id, write_op.response_time) == (
                handle.op_id, handle.response_time)
        assert operation_digest(view) == operation_digest(own)
        assert [op.response_time for op in own.writes()] == [handle.response_time]
