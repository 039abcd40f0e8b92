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
* a ``ReadOp`` goes to an explicit pid or to an *active* process drawn
  uniformly, in place, from the membership's cached active list
  (:meth:`~repro.sim.membership.Membership.draw_active`, stream
  ``workload.readers``); if no active process exists at that instant
  the read is skipped and counted (another breakdown signal).  A drawn
  reader is present and active by construction, so the driver invokes
  its ``read`` directly and records the handle in the history.

An explicit pid (:func:`named_process`) that has departed or is still
joining is a counted skip; one that never entered the system is a
mistyped plan, refused with an :class:`ExperimentError` naming the pid
and the op's planned time.  The driver records every issued handle, so
experiments can compute latency distributions without digging through
the history.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import attrgetter
from typing import Any, Callable, Sequence

from ..runtime.system import DynamicSystem
from ..sim.clock import Time
from ..sim.engine import EventScheduler, collector_paused
from ..sim.errors import ExperimentError
from ..sim.events import Priority
from ..sim.membership import Membership
from ..sim.operations import OperationHandle
from ..sim.process import SimProcess


_PLANNED_AT = attrgetter("time")


# A plan op is a frozen, slotted value object built by the hundred
# thousand, so its ``__init__`` is written by hand: each field goes
# straight into its slot through the slot's member descriptor (bound
# below, once the dataclass has made the slotted class), one C call
# apiece, instead of the generated ``__init__``'s generic
# ``object.__setattr__``.  Everything else — ``__eq__``, ``__hash__``,
# ``__repr__``, ``__match_args__``, ``dataclasses.replace`` and the
# refusal to assign a field — is the dataclass's own.


@dataclass(frozen=True, slots=True, init=False)
class ReadOp:
    """Plan: read ``key`` at ``time``, by ``reader`` (``None`` = random
    active process; ``key=None`` = the default register)."""

    time: Time
    reader: str | None = None
    key: Any = None

    def __init__(self, time: Time, reader: str | None = None, key: Any = None):
        _set_read_time(self, time)
        _set_read_reader(self, reader)
        _set_read_key(self, key)


@dataclass(frozen=True, slots=True, init=False)
class WriteOp:
    """Plan: write ``value`` to ``key`` at ``time`` (``None`` value =
    auto-unique; ``key=None`` = the default register)."""

    time: Time
    value: Any = None
    writer: str | None = None
    key: Any = None

    def __init__(
        self,
        time: Time,
        value: Any = None,
        writer: str | None = None,
        key: Any = None,
    ):
        _set_write_time(self, time)
        _set_write_value(self, value)
        _set_write_writer(self, writer)
        _set_write_key(self, key)


_set_read_time = ReadOp.__dict__["time"].__set__
_set_read_reader = ReadOp.__dict__["reader"].__set__
_set_read_key = ReadOp.__dict__["key"].__set__
_set_write_time = WriteOp.__dict__["time"].__set__
_set_write_value = WriteOp.__dict__["value"].__set__
_set_write_writer = WriteOp.__dict__["writer"].__set__
_set_write_key = WriteOp.__dict__["key"].__set__


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
    fire: Callable[[WorkloadOp], None],
) -> None:
    """Put a checked ``plan`` on ``engine`` as one series that calls
    ``fire(op)`` at each op's ``time`` — the one install path of both
    drivers.  ``fire`` is the driver's own dispatch, called by the
    series directly: a planned read enters no frame between the engine
    and the driver.

    The series is one never-cancelled queue slot however long the plan
    is: it reserves the block of sequence numbers and adds the
    ``len(plan)`` to ``pending_count`` that per-op ``schedule_at`` calls
    would, and pushes op ``k + 1`` as op ``k`` fires, so the plan fires
    in ``(time, position)`` order — what scheduling op by op in list
    order gives.  ``tests/sim/test_series.py`` holds the two
    indistinguishable."""
    check_plan(plan, engine.now)
    ordered = sorted(plan, key=_PLANNED_AT)
    engine.schedule_series(
        map(_PLANNED_AT, ordered), fire, ordered, priority=Priority.OPERATION
    )


def named_process(
    membership: Membership,
    pid: str,
    op: WorkloadOp,
    role: str,
    where: str = "the system",
) -> SimProcess | None:
    """The process an explicit ``op.reader`` / ``op.writer`` names, if it
    is present and active as ``op`` fires; ``None`` — a counted skip —
    if it departed or is still joining.  A ``pid`` that never entered
    ``membership`` is refused, naming it and the op's planned time."""
    if pid not in membership:
        raise ExperimentError(
            f"{type(op).__name__} planned at {op.time!r} names {role} {pid!r}, "
            f"which never entered {where}"
        )
    if not membership.is_present(pid):
        return None
    process = membership.process(pid)
    return process if process.is_active else None


@dataclass
class WorkloadStats:
    """What the driver actually managed to issue."""

    reads_issued: int = 0
    reads_skipped: int = 0  # no active process available
    writes_issued: int = 0
    writes_skipped: int = 0  # previous write still pending
    writes_deferred: int = 0  # queued by a migration freeze (cluster only)


class WorkloadDriver:
    """Installs a workload plan into a system and tracks outcomes."""

    def __init__(self, system: DynamicSystem, exclude_writer: bool = False) -> None:
        """``exclude_writer`` excludes the designated writer from the
        random reader pool (useful when measuring reader-side latency
        in isolation)."""
        self.system = system
        self._excluded = system.writer_pid if exclude_writer else None
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
        install_series(self.system.engine, plan, self._fire)

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _fire_write(self, op: WriteOp) -> None:
        # Serialize on the *resolved* key: in a multi-key system a
        # WriteOp with key=None addresses the default key, and must
        # share that key's serialization slot, not a separate None one.
        # The writer is looked up first, so a mistyped one is refused
        # even while a write is pending.
        system = self.system
        key = op.key if op.key is not None else system.keys[0]
        writer = op.writer if op.writer is not None else system.writer_pid
        pending = self._pending_writes.get(key)
        if (
            named_process(system.membership, writer, op, "writer") is None
            or (pending is not None and pending.pending)
        ):
            self.stats.writes_skipped += 1
            return
        handle = system.write(op.value, pid=writer, key=op.key)
        self._pending_writes[key] = handle
        self.stats.writes_issued += 1

    def _fire(self, op: WorkloadOp) -> None:
        """Fire one planned op: a write through :meth:`_fire_write`, a
        read here, inline — the hot path, one frame of the driver."""
        if not isinstance(op, ReadOp):
            self._fire_write(op)
            return
        system = self.system
        stats = self.stats
        if op.reader is None:
            node = system.membership.draw_active(self._rng, self._excluded)
        else:
            node = named_process(system.membership, op.reader, op, "reader")
        if node is None:
            stats.reads_skipped += 1
            return
        handle = node.read(op.key)
        system.history.record_operation(handle)
        stats.reads_issued += 1
