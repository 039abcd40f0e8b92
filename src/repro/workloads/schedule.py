"""Workload scheduling: turning operation plans into simulated invocations.

A workload is a list of :class:`ReadOp` / :class:`WriteOp` plans.  The
:class:`WorkloadDriver` checks the plan once (:func:`check_plan`), sorts
it stably by time and hands it to the engine as *one* series
(:func:`install_series`): the plan occupies a single queue slot however
long it is, and fires exactly as scheduling it op by op would.  At each
firing time the driver resolves *who* performs the operation:

* a ``WriteOp`` goes to the designated writer (or an explicit pid) and
  is **skipped** if the previous write has not completed — the paper
  assumes writes are never concurrent, and the checkers require
  serialized writes, so the driver enforces serialization and counts
  the skips (a liveness signal in its own right);
* a ``ReadOp`` goes to an explicit pid or to a uniformly drawn *active*
  process; if no active process exists at that instant the read is
  skipped and counted (another breakdown signal).

The driver records every issued handle, so experiments can compute
latency distributions without digging through the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import attrgetter
from typing import Any, Callable, Sequence

from ..runtime.system import DynamicSystem
from ..sim.clock import Time
from ..sim.engine import EventScheduler, collector_paused
from ..sim.errors import ExperimentError
from ..sim.events import Priority
from ..sim.operations import OperationHandle


_PLANNED_AT = attrgetter("time")


@dataclass(frozen=True, slots=True)
class ReadOp:
    """Plan: read ``key`` at ``time``, by ``reader`` (``None`` = random
    active process; ``key=None`` = the default register)."""

    time: Time
    reader: str | None = None
    key: Any = None


@dataclass(frozen=True, slots=True)
class WriteOp:
    """Plan: write ``value`` to ``key`` at ``time`` (``None`` value =
    auto-unique; ``key=None`` = the default register)."""

    time: Time
    value: Any = None
    writer: str | None = None
    key: Any = None


WorkloadOp = ReadOp | WriteOp


def check_plan(plan: Sequence[WorkloadOp], now: Time) -> None:
    """The one validation pass of both drivers: refuse, naming the op's
    position in the plan and its time, an op that is not a read or a
    write or whose time is NaN, infinite or before ``now``."""
    for position, op in enumerate(plan):
        if not isinstance(op, (ReadOp, WriteOp)):
            raise ExperimentError(
                f"unknown workload op {op!r} at position {position} of the plan"
            )
        if not (now <= op.time < inf):
            raise ExperimentError(
                f"operation {position} of the plan ({type(op).__name__}) is "
                f"planned at {op.time!r}: not a finite instant at or after "
                f"the clock, which reads {now!r}"
            )


def install_series(
    engine: EventScheduler,
    plan: Sequence[WorkloadOp],
    fire_read: Callable[[ReadOp], None],
    fire_write: Callable[[WriteOp], None],
) -> None:
    """Put a checked ``plan`` on ``engine`` as one series that fires
    each op at its ``time`` — the one install path of both drivers.
    The plan fires in ``(time, position)`` order, which is what
    scheduling op by op in list order would give."""
    check_plan(plan, engine.now)
    ordered = sorted(plan, key=_PLANNED_AT)

    def fire(op: WorkloadOp) -> None:
        (fire_read if isinstance(op, ReadOp) else fire_write)(op)

    engine.schedule_series(
        map(_PLANNED_AT, ordered), fire, ordered, priority=Priority.OPERATION
    )


@dataclass
class WorkloadStats:
    """What the driver actually managed to issue."""

    reads_issued: int = 0
    reads_skipped: int = 0  # no active process available
    writes_issued: int = 0
    writes_skipped: int = 0  # previous write still pending
    writes_deferred: int = 0  # queued by a migration freeze (cluster only)
    read_handles: list[OperationHandle] = field(default_factory=list)
    write_handles: list[OperationHandle] = field(default_factory=list)

    @property
    def write_completion_rate(self) -> float:
        """Fraction of issued writes that completed."""
        if not self.write_handles:
            return 1.0
        done = sum(1 for h in self.write_handles if h.done)
        return done / len(self.write_handles)

    @property
    def read_completion_rate(self) -> float:
        """Fraction of issued reads that completed."""
        if not self.read_handles:
            return 1.0
        done = sum(1 for h in self.read_handles if h.done)
        return done / len(self.read_handles)


class WorkloadDriver:
    """Installs a workload plan into a system and tracks outcomes."""

    def __init__(self, system: DynamicSystem, avoid_writer_reads: bool = False) -> None:
        """``avoid_writer_reads`` excludes the designated writer from the
        random reader pool (useful when measuring reader-side latency
        in isolation)."""
        self.system = system
        self.avoid_writer_reads = avoid_writer_reads
        self.stats = WorkloadStats()
        self._rng = system.rng.stream("workload.readers")
        # Writes are serialized *per key* (the checkers partition the
        # history by key); the single register is key ``None``, whose
        # serialization is exactly the historical global one.
        self._pending_writes: dict[Any, OperationHandle] = {}
        self._installed = False

    @collector_paused()
    def install(self, plan: list[WorkloadOp]) -> None:
        """Schedule every planned operation (call once, before running)."""
        if self._installed:
            raise ExperimentError("workload installed twice")
        self._installed = True
        install_series(
            self.system.engine, plan, self._fire_read, self._fire_write
        )

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _fire_write(self, op: WriteOp) -> None:
        # Serialize on the *resolved* key: in a multi-key system a
        # WriteOp with key=None addresses the default key, and must
        # share that key's serialization slot, not a separate None one.
        key = op.key if op.key is not None else self.system.keys[0]
        pending = self._pending_writes.get(key)
        if pending is not None and pending.pending:
            self.stats.writes_skipped += 1
            return
        writer = op.writer if op.writer is not None else self.system.writer_pid
        if not self.system.membership.is_present(writer):
            self.stats.writes_skipped += 1
            return
        handle = self.system.write(op.value, pid=writer, key=op.key)
        self._pending_writes[key] = handle
        self.stats.writes_issued += 1
        self.stats.write_handles.append(handle)

    def _fire_read(self, op: ReadOp) -> None:
        system = self.system
        stats = self.stats
        reader = op.reader if op.reader is not None else self._pick_reader()
        if reader is None or not system.membership.is_present(reader):
            stats.reads_skipped += 1
            return
        # The node is resolved once: ``system.read`` would look it up
        # again to do exactly these two lines.
        node = system.node(reader)
        if not node.is_active:
            stats.reads_skipped += 1
            return
        handle = node.read(op.key)
        system.history.record_operation(handle)
        stats.reads_issued += 1
        stats.read_handles.append(handle)

    def _pick_reader(self) -> str | None:
        candidates = self.system.active_pids()
        if self.avoid_writer_reads:
            candidates = [pid for pid in candidates if pid != self.system.writer_pid]
        if not candidates:
            return None
        return self._rng.choice(candidates)
