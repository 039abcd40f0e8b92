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

Handles and rows
----------------

An operation something may wait on — a write, a join, an ES or ABD
read — is recorded as its :class:`~repro.sim.operations.OperationHandle`
(:meth:`History.record_operation`).  A complete local read — the
synchronous protocol's planned read, done in the frame that invokes it
— is recorded as a *row* (:meth:`History.record_read`), in columns as
the scheduler files a fan-out's replies: its instant in an
``array('d')`` (invocation and response are the one instant), its op id
in an ``array('q')`` (drawn where a handle would draw it), its process
as a 4 B number in an ``array('I')`` (the history numbers its readers as
they first read) and its value as a list slot.  Its key has a column of
its own that only a keyed history fills: the first row with a key fills
it in, ``None`` for every row before.  An unkeyed row costs 28 B and no
object, a keyed one 36 B; the history holds its rows' shard stamp
once.  Each handle notes how many rows were recorded before it, so
recording order is kept exactly across the two.

A consumer that iterates (``for op in history``, :meth:`operations`,
:meth:`of_kind`, :meth:`sub_history`, the cluster merge, ``viz/``, the
experiments) sees a row as a handle view built on demand
(:func:`~repro.sim.operations.completed_read`), in recording order,
streamed.  The four judged phases — the regularity sweep, the inversion
sweep, liveness and :func:`hash_rows` — read the columns through C-level
iterators and build a view only for a violation, an inversion witness
read on access, or a stuck operation.

The keyed register space
------------------------

``SystemConfig(keys=K)`` serves ``K`` registers (``k0 … k{K-1}``) from
one node population, and every layer understands the key dimension:
protocol state is multiplexed per key over one simulated process per
node on the shared ``QuorumPhase`` / ``PhaseTracker`` quorum machinery;
a joiner's entry round is batched (one inquiry broadcast and one reply
per active node install *every* key, so join traffic is independent of
``K`` — experiment E13 holds the ratio near 1); :meth:`History.sub_history`
and the partitioning ``RegularityChecker`` judge each key's sub-history
independently (regularity of the store is per-key regularity, pinned by
an equivalence property suite); and workloads spread operations over
keys with ``uniform`` or ``zipf`` pickers (``repro explore --keys 1 8``
sweeps key counts as a scenario axis).  With ``keys=1`` (the default)
the system is byte-identical to the single register: its messages,
digests and the whole seed corpus.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..sim.clock import Time
from ..sim.errors import HistoryError
from ..sim.operations import OperationHandle, completed_read, draw_op_id
from .register import OP_JOIN, OP_READ, OP_WRITE


#: Rows per hash update in :func:`operation_digest`.
_DIGEST_ROWS = 1024


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
    """Append-only record of a run's operations: handles, and the rows
    of complete local reads (see the module docstring)."""

    def __init__(self, initial_value: Any, shard: int | None = None) -> None:
        self.initial_value = initial_value
        #: The cluster shard this history belongs to (``None`` for a
        #: standalone system).  When set, every recorded handle is
        #: stamped with it, and its rows carry it, so a merged cluster
        #: view can be partitioned back into per-shard histories.
        self.shard = shard
        self._operations: list[OperationHandle] = []
        self._by_kind: defaultdict[str, list[OperationHandle]] = defaultdict(list)
        # Per handle in ``_operations``: the rows recorded before it.
        self._before = array("q")
        # The rows: instants, op ids, reader numbers, values, and the
        # keys once a row has one (empty while every key is ``None``).
        self._times = array("d")
        self._ids = array("q")
        self._readers = array("I")
        self._values: list[Any] = []
        self._keys: list[Any] = []
        # The readers' pids by number, and their numbers by pid.
        self._pids: list[str] = []
        self._numbers: dict[str, int] = {}
        self._row_shard = shard
        self._departures: dict[str, Time] = {}
        self._horizon: Time | None = None
        # Derived views of the *closed* history (see :meth:`memoized`).
        self._derived: dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # Recording (called by the system runtime)
    # ------------------------------------------------------------------

    def record_operation(self, handle: OperationHandle) -> None:
        """Register an invoked operation (its completion fills in later)."""
        if self.shard is not None:
            handle.shard = self.shard
        self._operations.append(handle)
        self._before.append(len(self._times))
        self._by_kind[handle.kind].append(handle)
        self._derived.clear()

    def record_read(self, instant: Time, process_id: str, key: Any, value: Any) -> None:
        """Register a read of ``key`` by ``process_id`` that returned
        ``value`` at ``instant``, complete as it was invoked: one row.
        Its op id is drawn here, where a handle would draw it."""
        self._times.append(instant)
        self._ids.append(draw_op_id())
        try:
            number = self._numbers[process_id]
        except KeyError:
            number = self._numbers[process_id] = len(self._pids)
            self._pids.append(process_id)
        self._readers.append(number)
        self._values.append(value)
        keys = self._keys
        if keys or key is not None:
            # The first keyed row fills the column in for the rows before it.
            keys += repeat(None, len(self._ids) - 1 - len(keys))
            keys.append(key)
        if self._derived:
            self._derived.clear()

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
    # Raw access
    # ------------------------------------------------------------------

    @property
    def horizon(self) -> Time | None:
        """The run's end time (``None`` while the run is in progress)."""
        return self._horizon

    def __len__(self) -> int:
        return len(self._operations) + len(self._times)

    def __iter__(self) -> Iterator[OperationHandle]:
        """Every operation in recording order, a row as its handle view:
        streamed, never a list of views."""
        if not self._times:
            return iter(self._operations)
        return self._merged(self._operations, self._before)

    def _merged(
        self, handles: Sequence[OperationHandle], before: Iterable[int]
    ) -> Iterator[OperationHandle]:
        """``handles`` with the row views interleaved, each handle after
        the ``before`` rows recorded ahead of it: one lazy chain, a view
        built as the chain reaches its row."""
        views = map(
            completed_read,
            self._ids,
            map(self._pids.__getitem__, self._readers),
            self._times,
            self._keys or repeat(None),
            self._values,
            repeat(self._row_shard),
        )
        segments: list[Iterable[OperationHandle]] = []
        cursor = 0
        for handle, stop in zip(handles, before):
            segments.append(islice(views, stop - cursor))
            segments.append((handle,))
            cursor = stop
        segments.append(views)
        return chain.from_iterable(segments)

    def _row_view(self, row: int) -> OperationHandle:
        """The handle view of row ``row``."""
        return completed_read(
            self._ids[row],
            self._pids[self._readers[row]],
            self._times[row],
            self._keys[row] if self._keys else None,
            self._values[row],
            self._row_shard,
        )

    def _read_count(self) -> int:
        return len(self._by_kind.get(OP_READ, ())) + len(self._times)

    def operations(self, kind: str | None = None) -> list[OperationHandle]:
        """All operations, optionally filtered by kind.

        Per-kind lists are maintained on append, so filtered access
        does not rescan the full operation list.
        """
        if kind is None:
            return list(self)
        return list(self.of_kind(kind))

    def of_kind(self, kind: str) -> Sequence[OperationHandle]:
        """The operations of one kind *without* the copy
        :meth:`operations` makes: for callers that only iterate.  It is
        the history's own list — never mutate it — unless the kind is
        the read and the history holds rows: then it is a new list of
        the handles and row views in recording order."""
        handles = self._by_kind.get(kind, ())
        if kind != OP_READ or not self._times:
            return handles
        before = [b for op, b in zip(self._operations, self._before) if op.kind == kind]
        return list(self._merged(handles, before))

    def joins(self) -> list[OperationHandle]:
        return self.operations(OP_JOIN)

    def reads(self) -> list[OperationHandle]:
        return self.operations(OP_READ)

    def writes(self) -> list[OperationHandle]:
        return self.operations(OP_WRITE)

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
        found = {
            op.key
            for kind in (OP_READ, OP_WRITE)
            for op in self._by_kind.get(kind, ())
        }
        if self._keys:
            found.update(self._keys)
        elif self._times:
            found.add(None)
        if not found:
            return [None]
        return sorted(found, key=lambda key: (key is not None, str(key)))

    def sub_history(self, key: Any) -> "History":
        """The single-register history of one key.

        Contains every read/write addressing ``key`` plus every join —
        a join spans all keys, so each key's sub-history sees it
        through a per-key view whose result is that key's adoption.
        Each key starts from the same initial value (the seeds install
        it on every key), and departures/horizon carry over, so the
        single-register checkers judge the sub-history unchanged.  A
        row stays a row, in the same recording order.

        Once the history is closed, every key's sub-history comes from
        one :meth:`memoized` pass and is the same object on every call,
        so the read verdicts it memoizes are shared by every checker.
        """
        subs = self.memoized("sub_histories", lambda: self._partition(self.keys()))
        sub = subs.get(key)
        if sub is None:  # no read or write addressed ``key``: joins only
            sub = self._partition([key])[key]
        return sub

    def _partition(self, keys: list[Any]) -> dict[Any, "History"]:
        """The sub-histories of ``keys``, built in one pass."""
        subs = {key: History(self.initial_value) for key in keys}
        for sub in subs.values():  # one reader numbering for them all
            sub._pids, sub._numbers = self._pids, self._numbers
        times, ids, readers, values = self._times, self._ids, self._readers, self._values
        row_keys = self._keys
        cursor = 0
        for op, stop in zip(
            chain(self._operations, (None,)), chain(self._before, (len(times),))
        ):
            for row in range(cursor, stop):
                key = row_keys[row] if row_keys else None
                sub = subs.get(key)
                if sub is not None:  # the row stays a row
                    sub._times.append(times[row])
                    sub._ids.append(ids[row])
                    sub._readers.append(readers[row])
                    sub._values.append(values[row])
                    if key is not None:
                        sub._keys.append(key)
            cursor = stop
            if op is None:
                break
            if op.kind == OP_JOIN:
                for key, sub in subs.items():
                    sub.record_operation(_JoinKeyView(op, key))
            else:
                sub = subs.get(op.key)
                if sub is not None:
                    sub.record_operation(op)
        for sub in subs.values():
            sub._row_shard = self._row_shard
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
        writes = sorted(
            self.of_kind(OP_WRITE), key=lambda op: (op.invoke_time, op.op_id)
        )
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
        for position, op in enumerate(writes, start=1):
            if op.invoke_time < previous_end:
                raise HistoryError(
                    f"writes overlap: {op!r} invoked before the previous "
                    f"write responded at {previous_end!r}; the checker "
                    f"requires serialized writes"
                )
            if op.done:
                response: Time | None = op.response_time
                abandoned = False
                previous_end = op.response_time  # type: ignore[assignment]
            elif op.abandoned:
                response = None
                abandoned = True
            else:  # still pending at the horizon
                response = None
                abandoned = False
            records.append(
                WriteRecord(
                    index=position,
                    value=op.argument,
                    invoke_time=op.invoke_time,
                    response_time=response,
                    process_id=op.process_id,
                    abandoned=abandoned,
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
            f"History(ops={len(self)}, "
            f"writes={len(self.writes())}, reads={self._read_count()}, "
            f"joins={len(self.joins())})"
        )


class _JoinKeyView:
    """One key's view of a (possibly multi-key) join operation.

    Quacks like the underlying :class:`OperationHandle` — the checkers
    only touch timing/state attributes and ``result`` — but presents
    the join result restricted to one key, so a key's sub-history can
    be judged by the unchanged single-register checkers.
    """

    __slots__ = ("_op", "key")

    def __init__(self, op: OperationHandle, key: Any) -> None:
        self._op = op
        self.key = key

    @property
    def result(self) -> Any:
        result = self._op.result
        if hasattr(result, "for_key"):
            return result.for_key(self.key)
        return result  # single-key JoinResult (or a protocol's plain "ok")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._op, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_JoinKeyView({self._op!r}, key={self.key!r})"


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
    hash_rows(sha, history)
    return sha.hexdigest()


def hash_rows(
    sha: Any, operations: Iterable[OperationHandle], sharded: bool = False
) -> None:
    """Feed ``sha`` the bytes of ``repr(rows)``, one row per operation.

    A row is ``(kind, process_id, invoke_time, response_time,
    str(argument))`` with the key after the kind when it is not
    ``None``; ``sharded`` rows always carry the key and start with the
    operation's shard.  Each row's text is written field by field with
    ``!r`` — what ``repr`` of the tuple writes — and fed to the hash
    :data:`_DIGEST_ROWS` rows at a time, so the list never exists.  A
    response that *is* the invocation instant (a local read) reuses its
    text: identity, not equality, since ``1 == 1.0`` and
    ``0.0 == -0.0`` yet each pair has two texts.  A :class:`History`'s
    rows are written from its columns, :data:`_DIGEST_ROWS` at a time
    by one comprehension over C-level iterators: no view and no Python
    call per row.
    """
    sha.update(b"[")
    separator = ""
    for texts in _row_texts(operations, sharded):
        sha.update((separator + ", ".join(texts)).encode())
        separator = ", "
    sha.update(b"]")


def _row_texts(
    operations: Iterable[OperationHandle], sharded: bool
) -> Iterator[list[str]]:
    """The texts :func:`hash_rows` writes, in lists of at most
    :data:`_DIGEST_ROWS`: a history's rows from its columns between its
    handles, any other operation (and every sharded one) as a handle."""
    if sharded or not isinstance(operations, History) or not operations._times:
        yield from _handle_texts(iter(operations), sharded)
        return
    history = operations
    rows = zip(
        history._keys or repeat(None),
        map(history._pids.__getitem__, history._readers),
        map(repr, history._times),
    )
    cursor = 0
    for op, stop in zip(
        chain(history._operations, (None,)),
        chain(history._before, (len(history._times),)),
    ):
        while cursor < stop:
            count = min(stop - cursor, _DIGEST_ROWS)
            yield [
                f"('read', {process!r}, {instant}, {instant}, 'None')"
                if key is None
                else f"('read', {key!r}, {process!r}, {instant}, {instant}, 'None')"
                for key, process, instant in islice(rows, count)
            ]
            cursor += count
        if op is not None:
            yield from _handle_texts(iter((op,)), False)


def _handle_texts(
    operations: Iterator[OperationHandle], sharded: bool
) -> Iterator[list[str]]:
    """The row texts of handles, :data:`_DIGEST_ROWS` at a time."""
    while True:
        rows: list[str] = []
        append = rows.append
        for op in islice(operations, _DIGEST_ROWS):
            invoke = op.invoke_time
            response = op.response_time
            invoked = repr(invoke)
            responded = invoked if response is invoke else repr(response)
            key = op.key
            if sharded:
                append(
                    f"({op.shard!r}, {op.kind!r}, {key!r}, {op.process_id!r}, "
                    f"{invoked}, {responded}, {str(op.argument)!r})"
                )
            elif key is None:
                append(
                    f"({op.kind!r}, {op.process_id!r}, {invoked}, {responded}, "
                    f"{str(op.argument)!r})"
                )
            else:
                append(
                    f"({op.kind!r}, {key!r}, {op.process_id!r}, {invoked}, "
                    f"{responded}, {str(op.argument)!r})"
                )
        if not rows:
            return
        yield rows
