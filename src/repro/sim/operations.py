"""Generator-based protocol operations.

The paper writes its protocols imperatively with ``wait`` statements
("wait(δ)", "wait until |replies| ≥ n/2 + 1").  To keep the Python
implementation auditable line-for-line against Figures 1–6, protocol
operations are written as *generators* that yield effect objects:

``yield Wait(delta)``
    Suspend the operation for ``delta`` simulated time units.

``yield WaitUntil(predicate)``
    Suspend until ``predicate()`` becomes true.  The owning process
    re-evaluates pending predicates after every message it handles, so
    a condition such as "enough replies arrived" wakes the operation on
    the exact delivery that satisfies it.

A generator's ``return value`` becomes the operation's result.  Each
invocation is wrapped in an :class:`OperationHandle` — the future-like
object a waiter holds while the operation is in flight.

The system history records every operation as a *row* of its columns
(:mod:`repro.core.history`): a handle recorded while pending names its
row (``_row``) and fills in its response and result there when it
completes or is abandoned, and the history drops it then.  A read that
nothing waits on needs no handle at all: the synchronous protocol's
planned read is complete in the frame that invokes it and is recorded
as a row directly, its op id drawn by :func:`draw_op_id` at the point a
handle would draw it.  A settled row reads back as a handle built by
:func:`settled_handle`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from .clock import Time
from .errors import (
    OperationAbandonedError,
    OperationError,
    OperationPendingError,
)

#: The type protocol operation bodies must have.
OperationBody = Generator["Effect", None, Any]


class Effect:
    """Marker base class for values yielded by operation bodies."""

    __slots__ = ()


@dataclass(frozen=True)
class Wait(Effect):
    """Suspend the operation for a fixed number of time units."""

    duration: Time

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise OperationError(f"cannot wait a negative duration {self.duration!r}")


@dataclass(frozen=True)
class WaitUntil(Effect):
    """Suspend the operation until ``predicate()`` returns true.

    The predicate must be cheap and side-effect free: it may be invoked
    any number of times, including immediately at yield point.
    """

    predicate: Callable[[], bool]
    label: str = ""


class OperationState(enum.Enum):
    """Lifecycle of an invoked operation."""

    PENDING = "pending"
    DONE = "done"
    ABANDONED = "abandoned"  # the invoking process left mid-operation


_op_counter = itertools.count()

#: Draw the next operation id: one counter for handles and history rows,
#: so ids follow invocation order across both.
draw_op_id = _op_counter.__next__


class OperationHandle:
    """A future-like record of one register operation invocation.

    Handles are created by the process framework when an operation is
    invoked and completed (or abandoned) by the operation runner.  The
    history keeps an operation as a row and holds its handle only while
    it is in flight; a settled row reads back as a handle view
    (:func:`settled_handle`).
    """

    __slots__ = (
        "op_id",
        "kind",
        "process_id",
        "argument",
        "key",
        "shard",
        "invoke_time",
        "response_time",
        "_result",
        "_state",
        "_callbacks",
        "_row",
    )

    def __init__(
        self,
        kind: str,
        process_id: str,
        invoke_time: Time,
        argument: Any = None,
        key: Any = None,
    ) -> None:
        self.op_id: int = next(_op_counter)
        self.kind = kind
        self.process_id = process_id
        self.argument = argument
        # The register key this operation addressed; ``None`` for the
        # classic single register (and for joins, which span all keys).
        self.key = key
        # The cluster shard that served this operation; ``None`` outside
        # a sharded cluster (stamped by the shard's history when the
        # owning system runs as one shard of a ClusterSystem).
        self.shard: int | None = None
        self.invoke_time = invoke_time
        self.response_time: Time | None = None
        self._result: Any = None
        self._state = OperationState.PENDING
        # The shared empty tuple until a callback has to wait: most
        # handles (every workload read) never get one.
        self._callbacks: Sequence[Callable[[OperationHandle], None]] = ()
        # ``(history, row)``: the row this handle fills in when it
        # settles, named by the first history that records it pending.
        self._row: tuple[Any, int] | None = None

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the operation returned a response."""
        return self._state is OperationState.DONE

    @property
    def abandoned(self) -> bool:
        """True if the invoking process left before responding."""
        return self._state is OperationState.ABANDONED

    @property
    def pending(self) -> bool:
        return self._state is OperationState.PENDING

    @property
    def result(self) -> Any:
        """The operation's return value.

        Raises if the operation has not completed, so latent races in
        experiment code fail loudly instead of reading ``None``.
        """
        if self._state is OperationState.PENDING:
            raise OperationPendingError(
                f"{self.kind} by {self.process_id} has not completed"
            )
        if self._state is OperationState.ABANDONED:
            raise OperationAbandonedError(
                f"{self.kind} by {self.process_id} was abandoned "
                f"(the process left the system)"
            )
        return self._result

    @property
    def latency(self) -> Time:
        """Response time minus invocation time (completed operations only)."""
        if self.response_time is None:
            raise OperationPendingError(
                f"{self.kind} by {self.process_id} has no response yet"
            )
        return self.response_time - self.invoke_time

    # ------------------------------------------------------------------
    # Completion (used by the operation runner)
    # ------------------------------------------------------------------

    def add_done_callback(self, callback: Callable[["OperationHandle"], None]) -> None:
        """Run ``callback(handle)`` when the operation completes.

        If the handle already completed, the callback runs immediately.
        """
        if self._state is not OperationState.PENDING:
            callback(self)
        elif self._callbacks:
            self._callbacks.append(callback)
        else:
            self._callbacks = [callback]

    def _complete(self, result: Any, time: Time) -> None:
        if self._state is not OperationState.PENDING:
            raise OperationError(f"operation {self.op_id} completed twice")
        self._result = result
        self.response_time = time
        self._state = OperationState.DONE
        if self._row is not None or self._callbacks:
            self._settled()

    def _abandon(self, time: Time) -> None:
        if self._state is not OperationState.PENDING:
            return
        self.response_time = None
        self._state = OperationState.ABANDONED
        if self._row is not None or self._callbacks:
            self._settled()

    def _settled(self) -> None:
        """Fill in the history row it names, then run its callbacks."""
        row, self._row = self._row, None
        if row is not None:
            row[0]._fill(row[1], self)
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperationHandle({self.kind} by {self.process_id} "
            f"@{self.invoke_time!r}, {self._state.value})"
        )


_new_handle = object.__new__


def settled_handle(
    op_id: int, kind: str, process_id: str, invoke_time: Time,
    response_time: Time | None, key: Any, argument: Any, result: Any, shard: int | None,
) -> OperationHandle:
    """A handle that has already settled, under the given op id (none is
    drawn): done at ``response_time`` with ``result``, or abandoned if
    ``response_time`` is ``None``.  It has no callbacks and no row."""
    handle = _new_handle(OperationHandle)
    handle.op_id, handle.kind, handle.process_id = op_id, kind, process_id
    handle.argument, handle.key, handle.shard = argument, key, shard
    handle.invoke_time, handle.response_time = invoke_time, response_time
    handle._callbacks, handle._row = (), None
    if response_time is None:
        handle._result, handle._state = None, OperationState.ABANDONED
    else:
        handle._result, handle._state = result, OperationState.DONE
    return handle
