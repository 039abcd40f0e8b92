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
        history._operations.reverse()  # recording order must not matter
        write(history, "v1", 1.0, 2.0)
        records = history.write_records()
        values = [r.value for r in records]
        assert values == ["v0", "v1", "v2"]

    def test_overlapping_writes_rejected(self):
        history = History("v0")
        write(history, "v1", 1.0, 5.0)
        write(history, "v2", 3.0, 7.0)
        with pytest.raises(HistoryError):
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
        with pytest.raises(HistoryError):
            history.value_to_write()

    def test_initial_value_collision_rejected(self):
        history = History("v0")
        write(history, "v0", 1.0, 2.0)
        with pytest.raises(HistoryError):
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
        assert list(history) == [w, r]

    def test_of_kind_is_the_per_kind_list_not_a_copy(self):
        history = History("v0")
        assert len(history.of_kind("read")) == 0
        first = read(history, "v0", 1.0, 1.0)
        view = history.of_kind("read")
        assert list(view) == [first] and history.of_kind("read") is view
        second = read(history, "v0", 2.0, 2.0)
        assert list(view) == [first, second]
        # The copying accessors still hand out lists of their own.
        assert history.reads() == list(view) and history.reads() is not view


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
    handle = OperationHandle(
        draw(st.sampled_from(["read", "write", "join"])),
        draw(_AWKWARD_TEXT),
        invoke_time=invoke,
        argument=draw(st.one_of(st.none(), st.integers(-3, 3), _AWKWARD_TEXT)),
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
        import hashlib

        rows = [
            (op.kind, op.process_id, op.invoke_time, op.response_time, str(op.argument))
            if op.key is None
            else (op.kind, op.key, op.process_id, op.invoke_time,
                  op.response_time, str(op.argument))
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
