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
object recorded in the system history and consumed by the checkers.
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


class OperationHandle:
    """A future-like record of one register operation invocation.

    Handles are created by the process framework when an operation is
    invoked and completed (or abandoned) by the operation runner.  They
    double as the *history* entries consumed by the correctness
    checkers, which is why they carry invocation/response timestamps.
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

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------

    @property
    def state(self) -> OperationState:
        return self._state

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
        self._fire_callbacks()

    def _abandon(self, time: Time) -> None:
        if self._state is not OperationState.PENDING:
            return
        self.response_time = None
        self._state = OperationState.ABANDONED
        self._fire_callbacks()

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperationHandle({self.kind} by {self.process_id} "
            f"@{self.invoke_time!r}, {self._state.value})"
        )
