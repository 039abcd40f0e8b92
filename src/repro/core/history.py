"""Operation histories: the observable behaviour of a run.

A :class:`History` collects every operation invocation as an
:class:`~repro.sim.operations.OperationHandle` (invocation time,
response time, argument, result) together with the register's initial
value.  It is the *only* input to the correctness checkers — exactly
like the register specification, which is stated purely in terms of
operation intervals and values — so the checkers remain valid for
protocols that are deliberately broken.

The history also knows which processes departed and when, so the
liveness checker can excuse operations abandoned by a leave (the
specification only promises termination to processes that stay).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..sim.clock import Time
from ..sim.errors import HistoryError
from ..sim.operations import OperationHandle
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
    """Append-only record of a run's operations."""

    def __init__(self, initial_value: Any, shard: int | None = None) -> None:
        self.initial_value = initial_value
        #: The cluster shard this history belongs to (``None`` for a
        #: standalone system).  When set, every recorded operation is
        #: stamped with it, so a merged cluster view can be partitioned
        #: back into per-shard histories.
        self.shard = shard
        self._operations: list[OperationHandle] = []
        self._by_kind: defaultdict[str, list[OperationHandle]] = defaultdict(list)
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
        self._by_kind[handle.kind].append(handle)
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
        return len(self._operations)

    def __iter__(self) -> Iterator[OperationHandle]:
        return iter(self._operations)

    def operations(self, kind: str | None = None) -> list[OperationHandle]:
        """All operations, optionally filtered by kind.

        Per-kind lists are maintained on append, so filtered access
        does not rescan the full operation list.
        """
        if kind is None:
            return list(self._operations)
        return list(self._by_kind.get(kind, ()))

    def of_kind(self, kind: str) -> Sequence[OperationHandle]:
        """The operations of one kind *without* the copy
        :meth:`operations` makes: for callers that only iterate.  It is
        the history's own list — never mutate it."""
        return self._by_kind.get(kind, ())

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
        single-register checkers judge the sub-history unchanged.

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
        for op in self._operations:
            if op.kind == OP_JOIN:
                for key, sub in subs.items():
                    sub.record_operation(_JoinKeyView(op, key))
            else:
                sub = subs.get(op.key)
                if sub is not None:
                    sub.record_operation(op)
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
            f"History(ops={len(self._operations)}, "
            f"writes={len(self.writes())}, reads={len(self.reads())}, "
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
    ``0.0 == -0.0`` yet each pair has two texts.
    """
    sha.update(b"[")
    operations = iter(operations)
    separator = ""
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
            break
        sha.update((separator + ", ".join(rows)).encode())
        separator = ", "
    sha.update(b"]")
