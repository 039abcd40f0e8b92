"""Workload scheduling: turning operation plans into simulated invocations.

A workload is a plan of :class:`ReadOp` / :class:`WriteOp` ops: a
:class:`Plan` — two columns, an ``array('d')`` of instants and the op
filed at each, ``None`` for a default read, so such a read costs 16 B
(``read_heavy_plan`` builds one) — or a list of op objects.  The one
:class:`WorkloadDriver` — for a single population and for a cluster
alike — checks the plan once (:func:`check_plan`), turns a list into a
:class:`Plan` by a stable sort on time, and hands the plan's columns to
the engine as *one* series (:func:`install_series`): an op takes a
queue slot only once the clock reaches its epoch, and the plan fires
exactly as scheduling it op by op would.  At each firing time the
driver resolves *who* performs the operation:

* a ``WriteOp`` goes to the designated writer (or an explicit pid) and
  is **skipped** if the previous write has not completed — the paper
  assumes writes are never concurrent, and the checkers require
  serialized writes, so the driver enforces serialization and counts
  the skips (a liveness signal in its own right);
* a ``ReadOp`` (``None``: a default read) goes to an explicit pid or
  to an *active* process drawn uniformly, in place, from the
  membership's cached active list
  (:meth:`~repro.sim.membership.Membership.draw_active`, from the
  system's ``reader_stream``: ``workload.readers`` for a population);
  if no active process exists at that instant the read is skipped and
  counted (another breakdown signal).  A drawn reader is present and
  active by construction, so the driver invokes its ``read`` directly.
  Nothing waits on a planned read: a node whose read is born complete
  (``reads_as_rows``, the synchronous protocol's) records it in the
  history as a row and builds no handle; any other read's handle is
  recorded.

An explicit pid (:func:`named_process`) that has departed or is still
joining is a counted skip; one that never entered the system is a
mistyped plan, refused with an :class:`ExperimentError` naming the pid
and the op's planned time.  Every issued operation is recorded in the
history, so experiments compute latency distributions from it.

On a cluster each op is routed when it fires, through the cluster's
key→shard map (``owners``), so a plan installed before a migration flip
still lands on the new owner.  A read draws from the owning shard
(stream ``workload.cluster.readers``), which a named reader must be
in.  A write passes the front door, which writes by the owner's
designated writer (a plan naming a writer is refused), defers a write
to a frozen or busy key (``stats.writes_deferred``) and drops one whose
owner's writer is gone (``stats.writes_dropped``).
:class:`ShardLoad` counts the issued ops per shard and per key.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from math import inf
from operator import attrgetter, is_not, le
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..runtime.system import DynamicSystem
from ..sim.clock import Time
from ..sim.engine import EventScheduler, collector_paused
from ..sim.errors import ExperimentError
from ..sim.events import Priority
from ..sim.membership import Membership
from ..sim.operations import OperationHandle
from ..sim.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.system import ClusterSystem


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
_OPS = (ReadOp, WriteOp)


class Plan(Sequence):
    """A plan as two columns: ``times``, an ``array('d')`` of the ops'
    instants, non-decreasing, and ``ops``, the op filed at each instant
    — ``None`` for a default read (no reader, no key), the op object
    for anything else.  A default read is stored as its 8 B instant and
    a ``None`` slot, and built as ``ReadOp(time)`` only when asked for:
    iterating or indexing gives exactly the ops of the list plan it
    stands for, in order.  A plan is never changed once built — the
    engine files its ``times`` as they are — so it has no mutator; a
    slice is a new plan."""

    __slots__ = ("times", "ops")

    def __init__(self, times: array, ops: list[WorkloadOp | None]) -> None:
        if len(times) != len(ops):
            raise ExperimentError(
                f"a plan of {len(times)} instants for {len(ops)} ops"
            )
        self.times = times
        self.ops = ops

    @classmethod
    def of(cls, plan: Iterable[WorkloadOp]) -> Plan:
        """The plan of a list of ops, sorted stably by time: ties keep
        their list order.  Every op is kept as it is."""
        ordered = sorted(plan, key=_PLANNED_AT)
        return cls(array("d", map(_PLANNED_AT, ordered)), ordered)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: int | slice) -> WorkloadOp | Plan:
        if isinstance(index, slice):
            return Plan(self.times[index], self.ops[index])
        op = self.ops[index]
        return ReadOp(self.times[index]) if op is None else op

    def __iter__(self) -> Iterator[WorkloadOp]:
        return map(self.__getitem__, range(len(self.times)))


def check_plan(plan: Plan | Sequence[WorkloadOp], now: Time) -> None:
    """The driver's one validation pass: refuse, naming the op's
    position in the plan and its time, an op that is not a read or a
    write or whose time is NaN, infinite or before ``now``.  A
    :class:`Plan` is also refused an instant below the one before it,
    and an op filed at an instant other than its own time.

    A :class:`Plan` is checked in columns — one C-level pass over its
    instants and a look at each op it holds — and walked position by
    position only when it fails, to name the first bad op."""
    ordered = isinstance(plan, Plan)
    if ordered:
        times, ops = plan.times, plan.ops
        if not times or (
            now <= times[0]
            and times[-1] < inf
            and all(map(le, times, islice(times, 1, None)))
        ):
            for position in compress(count(), map(is_not, ops, repeat(None))):
                op = ops[position]
                if not isinstance(op, _OPS) or op.time != times[position]:
                    break
            else:
                return
        items = zip(times, ops)
    else:
        items = zip(map(getattr, plan, repeat("time"), repeat(None)), plan)
    previous = now
    for position, (instant, op) in enumerate(items):
        if not isinstance(op, _OPS) and (op is not None or not ordered):
            raise ExperimentError(
                f"unknown workload op {op!r} at position {position} of the plan"
            )
        if not (now <= instant < inf):
            raise ExperimentError(
                f"operation {position} of the plan "
                f"({'ReadOp' if op is None else type(op).__name__}) is planned "
                f"at {instant!r}: not a finite instant at or after the clock, "
                f"which reads {now!r}"
            )
        if instant < previous:
            raise ExperimentError(
                f"operation {position} of the plan is filed at {instant!r}, "
                f"before operation {position - 1} at {previous!r}: a plan's "
                f"instants never decrease"
            )
        if op is not None and op.time != instant:
            raise ExperimentError(
                f"operation {position} of the plan ({type(op).__name__}) is "
                f"planned at {op.time!r} but filed at {instant!r}"
            )
        if ordered:  # a list is sorted once checked
            previous = instant


def install_series(
    engine: EventScheduler,
    plan: Plan | Sequence[WorkloadOp],
    fire: Callable[[WorkloadOp | None], None],
) -> None:
    """Put a checked ``plan`` on ``engine`` as one series that calls
    ``fire(op)`` at each op's time — the driver's one install path.
    ``fire`` is the driver's own dispatch, called by the series
    directly: a planned read enters no frame between the engine and the
    driver, and a default read arrives as ``None``.

    A list plan is checked by its list positions, then becomes a
    :class:`Plan` by a stable sort on time (:meth:`Plan.of`).  The
    plan's two columns are the series as they are — ``times`` its
    instants, ``ops`` its items — so the engine copies neither.  The
    series is one never-cancelled vector of the engine's: it reserves
    the block of sequence numbers and adds the ``len(plan)`` to
    ``pending_count`` that per-op ``schedule_at`` calls would, and the
    engine builds each epoch's entries when the clock reaches it, so
    the plan fires in ``(time, position)`` order — what scheduling op
    by op in list order gives.  ``tests/sim/test_series.py`` holds the
    two indistinguishable."""
    check_plan(plan, engine.now)
    if not isinstance(plan, Plan):
        plan = Plan.of(plan)
    engine.schedule_series(plan.times, fire, plan.ops, priority=Priority.OPERATION)


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
    writes_dropped: int = 0  # the owner's writer was gone (cluster only)


@dataclass
class ShardLoad:
    """A cluster's issued operations per shard and per key: the load
    signal a :class:`~repro.cluster.rebalance.Rebalancer` samples
    (``per_shard`` names the hot shard, ``per_key`` the keys that make
    it hot).  An operation counts against the shard that owned its key
    when it was issued."""

    per_shard: list[int]
    per_key: dict[Any, int] = field(default_factory=dict)

    def count(self, shard: int, key: Any) -> None:
        self.per_shard[shard] += 1
        self.per_key[key] = self.per_key.get(key, 0) + 1


class WorkloadDriver:
    """Installs a workload plan into a population or a cluster and
    tracks outcomes: :attr:`stats`, and on a cluster :attr:`load`
    (``None`` on a population, which has no key→shard map)."""

    def __init__(
        self, system: DynamicSystem | ClusterSystem, exclude_writer: bool = False
    ) -> None:
        """``exclude_writer`` excludes a population's designated writer
        from the random reader pool (useful when measuring reader-side
        latency in isolation); a cluster, with one writer per shard,
        refuses it."""
        self._owners = system.owners
        if exclude_writer and self._owners is not None:
            raise ExperimentError(
                "exclude_writer=True needs a population's designated writer: "
                "a cluster has one writer per shard"
            )
        self.system = system
        self._excluded = system.writer_pid if exclude_writer else None
        self.stats = WorkloadStats()
        self._rng = system.rng.stream(system.reader_stream)
        self.load = (
            None if self._owners is None else ShardLoad([0] * len(system.shards))
        )
        # Writes are serialized *per key* (the checkers partition the
        # history by key); the single register is key ``None``, whose
        # serialization is exactly the historical global one.
        self._pending_writes: dict[Any, OperationHandle] = {}
        self._installed = False

    @collector_paused()
    def install(self, plan: Plan | list[WorkloadOp]) -> None:
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
        system = self.system
        key = op.key if op.key is not None else system.keys[0]
        pending = self._pending_writes.get(key)
        if self._owners is None:
            # A population's writer is looked up first, so a mistyped
            # one is refused even while a write is pending.
            writer = op.writer if op.writer is not None else system.writer_pid
            if (
                named_process(system.membership, writer, op, "writer") is None
                or (pending is not None and pending.pending)
            ):
                self.stats.writes_skipped += 1
                return
            handle = system.write(op.value, pid=writer, key=key)
        else:
            if op.writer is not None:
                raise ExperimentError(
                    f"WriteOp planned at {op.time!r} names writer {op.writer!r}: "
                    f"a cluster writes every key by its owner's designated writer"
                )
            if pending is not None and pending.pending:
                self.stats.writes_skipped += 1
                return
            dropped = system.writes_dropped
            handle = system.write(op.value, key=key)
            if handle is None:
                if system.writes_dropped > dropped:
                    # Dropped by the front door: the owner's writer is gone.
                    self.stats.writes_dropped += 1
                else:
                    # Deferred by the front door (frozen or busy); it
                    # will reach the then-current owner on unfreeze.
                    self.stats.writes_deferred += 1
                return
            self.load.count(self._owners[key], key)
        self._pending_writes[key] = handle
        self.stats.writes_issued += 1

    def _fire(self, op: WorkloadOp | None) -> None:
        """Fire one planned op: a write through :meth:`_fire_write`, a
        read here, inline — the hot path, one frame of the driver.
        ``None`` is a default read: a random reader, the default key."""
        if op is None:
            key = reader = None
        elif isinstance(op, ReadOp):
            key, reader = op.key, op.reader
        else:
            self._fire_write(op)
            return
        system = self.system
        owners = self._owners
        if owners is not None:
            if key is None:
                key = system.keys[0]
            shard = owners.get(key)
            if shard is None:
                system.resolve_key(key)  # an unknown key: the refusal
            system = system.shards[shard]
        if reader is None:
            node = system.membership.draw_active(self._rng, self._excluded)
        else:
            where = (
                "the system"
                if owners is None
                else f"shard {shard}, which owns key {key!r}"
            )
            node = named_process(system.membership, reader, op, "reader", where)
        if node is None:
            self.stats.reads_skipped += 1
            return
        if getattr(node, "reads_as_rows", False):
            node.read(key, system.history)  # nothing waits on it: a row
        else:
            system.history.record_operation(node.read(key))
        self.stats.reads_issued += 1
        if owners is not None:
            self.load.count(shard, key)
