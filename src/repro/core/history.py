"""Operation histories: the observable behaviour of a run.

A :class:`History` collects every operation invocation together with
the register's initial value: invocation time, response time, argument
and result.  It is the *only* input to the correctness checkers —
exactly like the register specification, which is stated purely in
terms of operation intervals and values — so the checkers remain valid
for protocols that are deliberately broken.

The history also knows which processes departed and when, so the
liveness checker can excuse operations abandoned by a leave (the
specification only promises termination to processes that stay).

Rows
----

Every operation is a *row* of the history's columns, in recording
order: its invocation instant (``array('d')``), op id (``array('q')``),
process as a 4 B number (``array('I')``, numbered as processes first
appear) and result as a list slot — a read's returned value, a join's
adoption, a write's argument.  A key column exists once a row has a key
(``None`` for the rows before).  Times are stored as ``float``.

A born-complete read — one whose response *is* its invocation, as the
synchronous protocol's planned read (:meth:`History.record_read`) — is
that and nothing more: 28 B and no object unkeyed, 36 B keyed.  Every
other operation has an *interval*: its row number, kind and response in
three sparse columns (a NaN response while it is in flight or once it
is abandoned).  In flight, the history holds its handle, which fills
the row in when it settles (:meth:`History.record_operation`); then the
history drops it.  The history holds its rows' shard stamp once.

A consumer that iterates (``for op in history``, :meth:`operations`,
:meth:`of_kind`, the cluster merge, ``viz/``, the experiments) sees a
row as a handle view built on demand (:func:`_view`), or its live
handle in flight, in recording order, streamed.  The four judged
phases — the regularity sweep, the inversion sweep, liveness and
:func:`hash_rows` — read the columns through C-level iterators
(:meth:`History.read_entries`, :meth:`History.intervals`) and build a
view only for a violation, an inversion witness read on access, or a
stuck operation.

The keyed register space
------------------------

``SystemConfig(keys=K)`` serves ``K`` registers (``k0 … k{K-1}``) from
one node population (:mod:`repro.protocols.sync_reg` describes the
batched join).  :meth:`History.sub_history` and the partitioning
``RegularityChecker`` judge each key's sub-history independently:
regularity of the store is per-key regularity, pinned by an equivalence
property suite.  With ``keys=1`` (the default) the system is
byte-identical to the single register: its messages, digests and the
whole seed corpus.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat, starmap, tee
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator

from ..sim.clock import Time
from ..sim.errors import HistoryError
from ..sim.operations import (
    OperationHandle,
    OperationState,
    draw_op_id,
    settled_handle,
)
from .register import OK, OP_JOIN, OP_READ, OP_WRITE


#: Rows per hash update in :func:`operation_digest`.
_DIGEST_ROWS = 1024

#: The response of a row with none: in flight, or abandoned.
_NONE = float("nan")

_DONE = OperationState.DONE
_PENDING = OperationState.PENDING

#: A :meth:`History._rows` row's fields that :func:`hash_rows` reads.
_HASHED = itemgetter(1, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """A write as the checker sees it.

    ``index`` is the write's position in the serialized write order
    (the workloads never issue concurrent writes, matching the paper's
    single-writer / serialized-writers assumption).  The initial value
    is write index 0, completed before time 0.
    """

    index: int
    value: Any
    invoke_time: Time
    response_time: Time | None  # None while pending or if abandoned
    process_id: str
    abandoned: bool = False

    @property
    def completed(self) -> bool:
        return self.response_time is not None and not self.abandoned

    def completed_before(self, instant: Time) -> bool:
        """Did this write complete at-or-before ``instant``?"""
        return self.completed and self.response_time <= instant

    def concurrent_with(self, invoke: Time, response: Time) -> bool:
        """Does this write overlap the interval ``[invoke, response]``?

        A write that never completed (still pending, or abandoned by a
        departing writer) stays concurrent with everything after its
        invocation: its value may surface at any later time.
        """
        if self.invoke_time > response:
            return False
        if self.response_time is None or self.abandoned:
            return True
        return self.response_time > invoke


class History:
    """Append-only record of a run's operations, one row each."""

    def __init__(self, initial_value: Any, shard: int | None = None) -> None:
        self.initial_value = initial_value
        #: The cluster shard this history belongs to (``None`` standalone):
        #: every recorded handle is stamped with it and every row carries
        #: it, so a merged cluster view partitions back into shards.
        self.shard = shard
        # Every row: instant, op id, process number, result, and the key
        # once a row has one (empty while every key is ``None``).
        self._times = array("d")
        self._ids = array("q")
        self._procs = array("I")
        self._values: list[Any] = []
        self._keys: list[Any] = []
        # The processes' pids by number, and their numbers by pid.
        self._pids: list[str] = []
        self._numbers: dict[str, int] = {}
        # The rows with an interval, ascending, and per such row its kind
        # and response (NaN: in flight, or abandoned).
        self._spans = array("q")
        self._kinds: list[str] = []
        self._responses = array("d")
        # Rows in flight: their live handles, until they settle.
        self._pending: dict[int, OperationHandle] = {}
        # Rows whose shard is not the history's (a cluster seam view's).
        self._stamps: dict[int, Any] = {}
        self._departures: dict[str, Time] = {}
        self._horizon: Time | None = None
        # Derived views of the *closed* history (see :meth:`memoized`).
        self._derived: dict[Any, Any] = {}
        # A sub-history of a key no read or write addressed (joins only).
        self._unaddressed = False

    # ------------------------------------------------------------------
    # Recording (called by the system runtime)
    # ------------------------------------------------------------------

    def record_operation(self, op: OperationHandle) -> None:
        """Record an invoked operation as a row (see the module
        docstring).  While it is in flight the history holds its handle:
        the handle fills its row in when it completes or is abandoned if
        this is the first history to record it pending, and any other
        history settles the row when it is read."""
        if self.shard is not None:
            op.shard = self.shard
        state, kind = op._state, op.kind
        live = op if state is _PENDING else None
        if live is not None and op._row is None:
            op._row = (self, len(self._ids))
        self._append(
            op.op_id, kind, op.process_id, op.invoke_time,
            op.response_time if state is _DONE else _NONE, op.key,
            op.argument if kind == OP_WRITE else op._result, op.shard, live,
        )

    def record_read(
        self, instant: Time, process_id: str, key: Any, value: Any, op_id: int = -1
    ) -> None:
        """Register a read of ``key`` by ``process_id`` that returned
        ``value`` at ``instant``, complete as it was invoked: one row.
        Its op id is drawn here, where a handle would draw it, unless
        given (the row of a recorded operation, from :meth:`_append`)."""
        self._times.append(instant)
        self._ids.append(draw_op_id() if op_id < 0 else op_id)
        try:
            number = self._numbers[process_id]
        except KeyError:
            number = self._numbers[process_id] = len(self._pids)
            self._pids.append(process_id)
        self._procs.append(number)
        self._values.append(value)
        keys = self._keys
        if keys or key is not None:
            # The first keyed row fills the column in for the rows before it.
            keys += repeat(None, len(self._ids) - 1 - len(keys))
            keys.append(key)
        if self._derived:
            self._derived.clear()

    def _append(
        self, op_id: int, kind: str, process_id: str, invoke: Time, response: Time,
        key: Any, value: Any, shard: Any, live: OperationHandle | None,
    ) -> None:
        """Append the row of one operation, in :meth:`_rows`' field
        order: a read whose response *is* its invocation is a
        born-complete read's row, any other operation has an interval.
        A settled join of a named key keeps that key's adoption."""
        row = len(self._ids)
        if kind != OP_READ or response is not invoke:
            self._spans.append(row)
            self._kinds.append(kind)
            self._responses.append(response)
            if live is not None:
                self._pending[row] = live
            elif kind == OP_JOIN and key is not None and response == response:
                value = self._adoption(op_id, value, key)
        if shard != self.shard:
            self._stamps[row] = shard
        self.record_read(invoke, process_id, key, value, op_id)

    def _fill(self, row: int, op: OperationHandle) -> None:
        """Settle row ``row`` from ``op``, which completed or was
        abandoned: its response and result, and the handle dropped."""
        pending = self._pending
        del pending[row]
        if not pending:  # a dict keeps its peak's table: start afresh
            self._pending = {}
        if op._state is _DONE:
            m = bisect_left(self._spans, row)
            self._responses[m] = op.response_time
            kind = self._kinds[m]
            if kind != OP_WRITE:
                value = op._result
                key = self._keys[row] if self._keys else None
                if kind == OP_JOIN and key is not None:
                    value = self._adoption(op.op_id, value, key)
                self._values[row] = value

    def _adoption(self, op_id: int, result: Any, key: Any) -> Any:
        """Join ``op_id``'s ``result`` restricted to ``key``: a multi-key
        join's adoption of that key, any other result as it is.  A
        multi-key join that installed no cell of ``key`` is a
        :class:`HistoryError`, unless no read or write addressed ``key``
        (nothing to judge it by): then it adopts ``None``."""
        for_key = getattr(result, "for_key", None)
        if for_key is None:
            return result
        try:
            return for_key(key)
        except KeyError:
            if self._unaddressed:
                return None
            raise HistoryError(
                f"join {op_id} adopted no cell of key {key!r}, which its "
                f"sub-history judges"
            ) from None

    def _settle(self) -> None:
        """Fill in the rows whose handles settled since this history
        recorded them (a handle fills in only its first history)."""
        for row, op in list(self._pending.items()):
            if op._state is not _PENDING:
                self._fill(row, op)

    def record_departure(self, pid: str, time: Time) -> None:
        """Note that ``pid`` left the system at ``time``."""
        self._departures[pid] = time

    def close(self, horizon: Time) -> None:
        """Freeze the history at the end of the run.

        Closing again at a later horizon (a resumed run) drops the
        memoized views: pending operations may have completed in
        between without a new append.
        """
        if horizon != self._horizon:
            self._derived.clear()
        self._horizon = horizon

    def memoized(self, key: Any, compute: Callable[[], Any]) -> Any:
        """``compute()``, shared under ``key`` for as long as the history
        stays closed and unchanged (any append, or a close at another
        horizon, drops it).  An open history always recomputes: pending
        handles can complete without a new append.  Treat the result as
        read-only."""
        if self._horizon is None:
            return compute()
        derived = self._derived
        if key not in derived:
            derived[key] = compute()
        return derived[key]

    # ------------------------------------------------------------------
    # Reading the rows
    # ------------------------------------------------------------------

    @property
    def horizon(self) -> Time | None:
        """The run's end time (``None`` while the run is in progress)."""
        return self._horizon

    def __len__(self) -> int:
        return len(self._ids)

    def count(self, kind: str) -> int:
        """How many operations of ``kind`` were recorded."""
        spanned = self._kinds.count(kind)
        if kind == OP_READ:
            return spanned + len(self._ids) - len(self._spans)
        return spanned

    def __iter__(self) -> Iterator[OperationHandle]:
        """Every operation in recording order, a settled row as its
        handle view: streamed, never a list of views."""
        return starmap(_view, self._rows(None))

    def operations(self, kind: str | None = None) -> list[OperationHandle]:
        """All operations, optionally filtered by kind."""
        return list(self) if kind is None else self.of_kind(kind)

    def of_kind(self, kind: str) -> list[OperationHandle]:
        """The operations of one kind, in recording order."""
        return list(starmap(_view, self._rows((kind,))))

    def joins(self) -> list[OperationHandle]:
        return self.operations(OP_JOIN)

    def reads(self) -> list[OperationHandle]:
        return self.operations(OP_READ)

    def writes(self) -> list[OperationHandle]:
        return self.operations(OP_WRITE)

    def row_view(self, row: int) -> OperationHandle:
        """The operation of row ``row``: its live handle while it is in
        flight, else its view."""
        if self._pending:
            self._settle()
        spans = self._spans
        m = bisect_left(spans, row)
        spanned = m < len(spans) and spans[m] == row
        invoke = self._times[row]
        return _view(
            self._ids[row],
            self._kinds[m] if spanned else OP_READ,
            self._pids[self._procs[row]],
            invoke,
            self._responses[m] if spanned else invoke,
            self._keys[row] if self._keys else None,
            self._values[row],
            self._stamps.get(row, self.shard),
            self._pending.get(row),
        )

    def read_entries(self) -> Iterator[tuple[Any, ...]]:
        """``(response, invoke_time, op_id, result, row)`` per read in
        recording order, through C-level iterators; the response is NaN
        while a read is in flight or once it is abandoned."""
        if self._pending:
            self._settle()
        times, ids, values = self._times, self._ids, self._values
        spans, rows = self._spanned((OP_READ,))
        return self._interleave(
            zip(times, times, ids, values, count()),
            zip(map(self._responses.__getitem__, spans), map(times.__getitem__, rows),
                map(ids.__getitem__, rows), map(values.__getitem__, rows), rows),
            (OP_READ,),
        )

    def intervals(self) -> Iterator[tuple[Any, ...]]:
        """``(row, kind, invoke_time, response, live)`` per row with an
        interval — every operation but a born-complete read — in
        recording order: the response NaN while the operation is in
        flight or once it is abandoned, ``live`` its handle while it is
        in flight (else ``None``)."""
        if self._pending:
            self._settle()
        spans = self._spans
        return zip(spans, self._kinds, map(self._times.__getitem__, spans),
                   self._responses, map(self._pending.get, spans))

    def _rows(self, kinds: Collection[str] | None) -> Iterator[tuple]:
        """``(op_id, kind, process_id, invoke_time, response, key, value,
        shard, live)`` per row of ``kinds`` (every kind when ``None``)
        in recording order — the arguments of :func:`_view` and of
        :meth:`_append`.  A born-complete read's response *is* its
        invocation object."""
        if self._pending:
            self._settle()
        times, ids, procs, values, keys = (
            self._times, self._ids, self._procs, self._values, self._keys)
        pids, stamps, shard = self._pids.__getitem__, self._stamps, self.shard
        spans, rows = self._spanned(kinds)
        same, instants = tee(times)
        return self._interleave(
            zip(ids, repeat(OP_READ), map(pids, procs), instants, same,
                iter(keys) if keys else repeat(None), values,
                map(stamps.get, count(), repeat(shard)) if stamps else repeat(shard),
                repeat(None)),
            zip(map(ids.__getitem__, rows), map(self._kinds.__getitem__, spans),
                map(pids, map(procs.__getitem__, rows)), map(times.__getitem__, rows),
                map(self._responses.__getitem__, spans),
                map(keys.__getitem__, rows) if keys else repeat(None),
                map(values.__getitem__, rows),
                map(stamps.get, rows, repeat(shard)) if stamps else repeat(shard),
                map(self._pending.get, rows)),
            kinds,
        )

    def _spanned(self, kinds: Collection[str] | None) -> tuple[Iterable[int], Iterable[int]]:
        """The positions in the interval columns, and the rows, of the
        interval rows of ``kinds`` (every kind when ``None``)."""
        if kinds is None:
            return range(len(self._spans)), self._spans
        positions = array("q", compress(count(), map(kinds.__contains__, self._kinds)))
        return positions, array("q", map(self._spans.__getitem__, positions))

    def _interleave(
        self, instant: Iterator, interval: Iterator, kinds: Collection[str] | None
    ) -> Iterator:
        """One item per row of ``kinds`` (every kind when ``None``) in
        recording order: a born-complete read's from ``instant``, which
        yields one item per row (those of interval rows are skipped), and
        an interval row's from ``interval``, which yields one per
        interval row of ``kinds``.  Lazy: one slice per run."""
        if kinds is not None and OP_READ not in kinds:
            return interval
        segments: list[Iterator] = []
        cursor = skip = run = 0
        for row, kind in zip(self._spans, self._kinds):
            if row > cursor:  # born-complete reads at rows [cursor, row)
                if run:
                    segments.append(islice(interval, run))
                    run = 0
                segments.append(islice(instant, skip, skip + row - cursor))
                skip = 0
            skip += 1
            run += kinds is None or kind in kinds
            cursor = row + 1
        if run:
            segments.append(islice(interval, run))
        segments.append(islice(instant, skip, None))
        return chain.from_iterable(segments)

    # ------------------------------------------------------------------
    # Keyed views (the RegisterSpace dimension)
    # ------------------------------------------------------------------

    def keys(self) -> list[Any]:
        """The register keys this history's reads/writes addressed.

        A classic single-register history returns ``[None]``; a keyed
        store returns its named keys in sorted order.  Joins are
        key-less (one join installs every key) and do not contribute.
        :meth:`memoized` once the history is closed.
        """
        return self.memoized("keys", self._find_keys)

    def _find_keys(self) -> list[Any]:
        if not self._keys:
            return [None]
        found = {row[5] for row in self._rows((OP_READ, OP_WRITE))}
        return sorted(found, key=lambda key: (key is not None, str(key))) or [None]

    def sub_history(self, key: Any) -> "History":
        """The single-register history of one key.

        Contains every read/write addressing ``key`` plus every join —
        a join spans all keys, so each key's sub-history keeps it as a
        row of that key whose result is that key's adoption.  Each key
        starts from the same initial value (the seeds install it on
        every key), and departures/horizon carry over, so the
        single-register checkers judge the sub-history unchanged.  Rows
        keep their recording order.

        Once the history is closed, every key's sub-history comes from
        one :meth:`memoized` pass and is the same object on every call,
        so the read verdicts it memoizes are shared by every checker.
        """
        subs = self.memoized("sub_histories", lambda: self._partition(self.keys()))
        sub = subs.get(key)
        if sub is None:  # no read or write addressed ``key``: joins only
            sub = self._partition([key], unaddressed=True)[key]
        return sub

    def _partition(self, keys: list[Any], unaddressed: bool = False) -> dict[Any, "History"]:
        """The sub-histories of ``keys``, built in one pass."""
        subs = {key: History(self.initial_value, self.shard) for key in keys}
        for sub in subs.values():  # one process numbering for them all
            sub._pids, sub._numbers = self._pids, self._numbers
            sub._unaddressed = unaddressed
        for op_id, kind, pid, invoke, response, key, value, shard, live in self._rows(None):
            for target in subs if kind == OP_JOIN else (key,):
                sub = subs.get(target)
                if sub is not None:
                    sub._append(op_id, kind, pid, invoke, response, target, value,
                                shard, live)
        for sub in subs.values():
            sub._departures = dict(self._departures)
            if self._horizon is not None:
                sub.close(self._horizon)
        return subs

    # ------------------------------------------------------------------
    # Derived views for the checkers
    # ------------------------------------------------------------------

    def write_records(self) -> list[WriteRecord]:
        """The serialized writes, including the virtual initial write.

        Raises :class:`~repro.sim.errors.HistoryError` if two write
        invocations overlap in time — the correctness conditions below
        are stated for serialized writes, and the workloads guarantee
        serialization, so an overlap is a harness bug worth failing on.

        :meth:`memoized` once the history is closed.
        """
        return self.memoized("write_records", self._serialize_writes)

    def _serialize_writes(self) -> list[WriteRecord]:
        writes = sorted(self._rows((OP_WRITE,)), key=itemgetter(3, 0))
        records = [
            WriteRecord(
                index=0,
                value=self.initial_value,
                invoke_time=float("-inf"),
                response_time=float("-inf"),
                process_id="<initial>",
            )
        ]
        previous_end: Time = float("-inf")
        for position, row in enumerate(writes, start=1):
            _, _, pid, invoke, response, _, value, _, live = row
            if invoke < previous_end:
                raise HistoryError(
                    f"writes overlap: {_view(*row)!r} invoked before the "
                    f"previous write responded at {previous_end!r}; the checker "
                    f"requires serialized writes"
                )
            if response == response:
                previous_end = response
            records.append(
                WriteRecord(
                    index=position,
                    value=value,
                    invoke_time=invoke,
                    response_time=response if response == response else None,
                    process_id=pid,
                    abandoned=response != response and live is None,
                )
            )
        return records

    def value_to_write(self) -> dict[Any, WriteRecord]:
        """Map each written value to its write record.

        Raises if two writes used the same value: the checkers need the
        mapping to be unambiguous (the workload generators enforce
        uniqueness by construction).  :meth:`memoized` alongside
        :meth:`write_records` once the history is closed.
        """
        return self.memoized("value_to_write", self._map_values)

    def _map_values(self) -> dict[Any, WriteRecord]:
        mapping: dict[Any, WriteRecord] = {}
        for record in self.write_records():
            if record.value in mapping:
                raise HistoryError(
                    f"value {record.value!r} written twice (writes "
                    f"{mapping[record.value].index} and {record.index}); "
                    f"checkers require unique written values"
                )
            mapping[record.value] = record
        return mapping

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"History(ops={len(self)}, writes={self.count(OP_WRITE)}, "
            f"reads={self.count(OP_READ)}, joins={self.count(OP_JOIN)})"
        )


def _view(
    op_id: int, kind: str, process_id: str, invoke: Time, response: Time, key: Any,
    value: Any, shard: Any, live: OperationHandle | None = None,
) -> OperationHandle:
    """The handle view of a row in :meth:`History._rows`' field order:
    ``live`` itself while in flight, else a settled handle, abandoned if
    ``response`` is NaN (none).  ``value`` is the row's result column: a
    write's argument (its view returns :data:`~repro.core.register.OK`),
    any other kind's result.  A born-complete read's view's response *is*
    its invocation object."""
    if live is not None:
        return live
    write = kind == OP_WRITE
    return settled_handle(op_id, kind, process_id, invoke,
                          response if response == response else None, key,
                          value if write else None, OK if write else value, shard)


def operation_digest(history: History) -> str:
    """SHA-256 fingerprint of a history's operation sequence.

    Covers kind, process, invocation/response times and argument of
    every operation in invocation order — the determinism surface the
    benchmarks and the explorer compare across runs.  Two runs with
    the same digest exhibited the same observable behaviour.  Keyed
    operations additionally cover their register key; single-register
    histories (``key=None`` throughout) hash exactly as they always
    did, which is what keeps the trajectory digests comparable across
    the RegisterSpace refactor.
    """
    sha = hashlib.sha256()
    hash_rows(sha, map(_HASHED, history._rows(None)))
    return sha.hexdigest()


def hash_rows(sha: Any, rows: Iterable[tuple[Any, ...]], sharded: bool = False) -> None:
    """Feed ``sha`` the bytes of ``repr(rows)``, one row per operation
    given as ``(kind, process_id, invoke_time, response_time, key,
    argument, shard)`` (a history's from its columns, where a write's
    argument is its result column).  A row is ``(kind, process_id,
    invoke_time, response_time, str(argument))`` with the key after the
    kind when it is not ``None``; ``sharded`` rows always carry the key
    and start with the operation's shard.  Each row's text is written
    field by field with ``!r`` — what ``repr`` of the tuple writes — and
    fed to the hash :data:`_DIGEST_ROWS` rows at a time, so the list
    never exists.  A response that *is* the invocation instant (a
    born-complete read) reuses its text, and a NaN or ``None`` response
    (none) writes ``None``.  A history stores its times as ``float``, so
    an ``int`` time hashes as its float: every recorded run's times are
    floats already.
    """
    rows = iter(rows)
    sha.update(b"[")
    separator = ""
    while texts := [
        f"('read', {process!r}, {(instant := repr(invoke))}, {instant}, 'None')"
        if response is invoke and key is None and kind == OP_READ and not sharded
        else _text(kind, key, process, invoke, response, value, shard, sharded)
        for kind, process, invoke, response, key, value, shard in islice(
            rows, _DIGEST_ROWS
        )
    ]:
        sha.update((separator + ", ".join(texts)).encode())
        separator = ", "
    sha.update(b"]")


def _text(
    kind: str, key: Any, process: str, invoke: Time, response: Time, value: Any,
    shard: Any, sharded: bool,
) -> str:
    """One row's text for :func:`hash_rows` (an unkeyed born-complete
    read's is written inline there)."""
    invoked = repr(invoke)
    responded = (invoked if response is invoke
                 else "None" if response != response else repr(response))
    head = (f"{shard!r}, {kind!r}, {key!r}" if sharded
            else f"{kind!r}" if key is None else f"{kind!r}, {key!r}")
    argument = str(value) if kind == OP_WRITE else "None"
    return f"({head}, {process!r}, {invoked}, {responded}, {argument!r})"
