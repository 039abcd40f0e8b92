"""Structured trace of everything that happens in a simulation.

The trace is the simulator's flight recorder: every send, delivery,
join, leave, operation invocation and response is appended as a
:class:`TraceRecord`.  Checkers and experiments consume the *history*
(:mod:`repro.core.history`) rather than the raw trace, but the trace is
what makes a surprising run debuggable after the fact, and several
tests assert directly against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .clock import Time


class TraceKind(enum.Enum):
    """The category of a trace record."""

    ENTER = "enter"  # a process entered the system (listening mode)
    ACTIVE = "active"  # a process completed join (active mode)
    LEAVE = "leave"  # a process left the system
    SEND = "send"  # point-to-point send
    RECEIVE = "receive"  # point-to-point receive
    BROADCAST = "broadcast"  # broadcast invoked
    DELIVER = "deliver"  # broadcast delivered at one process
    DROP = "drop"  # a message was dropped (receiver departed)
    OP_INVOKE = "op_invoke"  # register operation invoked
    OP_RETURN = "op_return"  # register operation returned
    OP_ABANDON = "op_abandon"  # operation's process left mid-flight
    CHURN_TICK = "churn_tick"  # one churn round executed
    NOTE = "note"  # free-form annotation


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One timestamped fact about the run."""

    time: Time
    kind: TraceKind
    process: str | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """A one-line human-readable rendering, used by example scripts."""
        who = f" {self.process}" if self.process else ""
        extra = ""
        if self.details:
            pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
            extra = f" [{pairs}]"
        return f"t={self.time:9.3f} {self.kind.value:<10}{who}{extra}"


class TraceLog:
    """An append-only, optionally bounded log of :class:`TraceRecord`.

    Recording can be disabled wholesale (``enabled=False``) for long
    benchmark runs where only the operation history matters; the
    recording API stays callable so instrumented code needs no guards.
    """

    def __init__(self, enabled: bool = True, capacity: int | None = None) -> None:
        self._records: list[TraceRecord] = []
        self._enabled = enabled
        self._capacity = capacity
        self._dropped = 0

    @property
    def enabled(self) -> bool:
        """Whether records are currently being retained."""
        return self._enabled

    @property
    def dropped(self) -> int:
        """How many records were discarded due to the capacity bound."""
        return self._dropped

    @property
    def truncation(self) -> str:
        """The line a whole-log reading of a truncated log ends with."""
        return (
            f"trace truncated: {self._dropped} records dropped "
            f"(trace_capacity={self._capacity})"
        )

    def record(
        self,
        time: Time,
        kind: TraceKind,
        process: str | None = None,
        **details: Any,
    ) -> None:
        """Append one record (a no-op when recording is disabled)."""
        if not self._enabled:
            return
        if self._capacity is not None and len(self._records) >= self._capacity:
            self._dropped += 1
            return
        self._records.append(TraceRecord(time, kind, process, details))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self._records[index]

    def filter(
        self,
        kind: TraceKind | None = None,
        process: str | None = None,
        predicate: Callable[[TraceRecord], bool] | None = None,
    ) -> list[TraceRecord]:
        """Return the records matching every supplied criterion."""
        out = []
        for record in self._records:
            if kind is not None and record.kind is not kind:
                continue
            if process is not None and record.process != process:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def count(self, kind: TraceKind) -> int:
        """The number of records of the given kind."""
        return sum(1 for record in self._records if record.kind is kind)

    def describe(self, limit: int | None = None) -> str:
        """Render the (possibly truncated) trace as printable text."""
        records = self._records if limit is None else self._records[:limit]
        lines = [record.describe() for record in records]
        if limit is not None and len(self._records) > limit:
            lines.append(f"... {len(self._records) - limit} more records")
        if self._dropped:
            lines.append(self.truncation)
        return "\n".join(lines)

    def __repr__(self) -> str:
        tail = f", {self.truncation}" if self._dropped else ""
        return f"TraceLog(records={len(self._records)}, enabled={self._enabled}{tail})"
