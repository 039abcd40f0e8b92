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
from typing import Any, Iterator

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


class TraceLog:
    """An append-only log of :class:`TraceRecord`.

    Recording can be disabled wholesale (``enabled=False``) for long
    benchmark runs where only the operation history matters; the
    recording API stays callable so instrumented code needs no guards.
    A traced run keeps every record; read them by iterating.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._records: list[TraceRecord] = []
        self._enabled = enabled

    @property
    def enabled(self) -> bool:
        """Whether records are currently being retained."""
        return self._enabled

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
        self._records.append(TraceRecord(time, kind, process, details))

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __repr__(self) -> str:
        return f"TraceLog(records={len(self._records)}, enabled={self._enabled})"
