"""The discrete-event scheduler at the heart of every simulation.

Design notes
------------

The engine is intentionally tiny and fully deterministic:

* queue entries are plain tuples of at least four fields, ``(time,
  priority, sequence, item, ...)`` — ``sequence`` is unique, so
  comparisons resolve at C speed on the first three fields and never
  touch the item, nor anything after it (entries of different lengths
  share a queue).  An item is either a full :class:`Event`
  (cancellable timers) or a never-cancelled
  :class:`~repro.sim.events.SlabEntry`, which is fired *with its
  entry*: whatever a push appends after the item is that push's own
  data, so one long-lived item serves any number of pushes — a
  message delivery is its queue tuple and nothing else (the network's
  one item, ``net/network.py``);
* a *vector* (:meth:`_schedule_vector`: a dense fan-out's arrivals, an
  installed plan) is a pre-sorted run of such entries kept as columns;
  each epoch's slice becomes tuples (one C-level ``zip``) only when
  the clock reaches it, so a pending item holds no queue slot;
* a *fan-in* (:meth:`_fan_in`: the replies to a dense fan-out's
  arrivals) is filed under its epoch in three columns — an
  ``array('d')`` of instants, an ``array('q')`` of sequence numbers and
  one flat list of ``item, dest, sender, payload`` pointers, 48 B a
  reply where its tuple, instant and sequence cost 160 — zipped into
  ordinary DELIVERY tuples with the epoch's bucket when the clock
  reaches it;
* the queue is an array-backed *calendar*: instants quantize into
  buckets one tick wide, each a flat append-only list sorted on the
  instant alone, then whole (a near-linear pass over tied runs that
  alone sets the order) when the clock reaches its epoch.  A push is a
  list append and a pop is an index increment; the total order is
  exactly ``(time, priority, sequence)`` at any bucket width;
* cancelling an event marks it dead in place (lazy deletion), which
  keeps cancellation O(1); when dead entries outnumber live ones the
  queue is compacted in place, so cancel-heavy workloads (migration
  retry storms) cannot grow it without bound;
* the clock only ever moves when an entry is dequeued, so a handler
  always observes ``engine.now`` equal to its own firing time;
* memory: reference counting is the kernel's memory manager.  A live
  simulation makes no cyclic garbage (``tests/sim/test_collector.py``: 0
  unreachable objects under ``gc.DEBUG_SAVEALL`` after collector-free
  runs of every protocol, churned, traced and faulted, and of a
  cluster's handoffs), while every automatic collection walks the
  in-flight queue tuples to find nothing — a quarter of a churn-heavy
  drive, charged by the ``perf/`` fold to whoever allocated (CHANGES.md,
  PR 15).  So :func:`collector_paused` holds CPython's cyclic collector
  off in ``_drain``, ``DynamicSystem._build_seeds``, the plan builders,
  both workload drivers' ``install``, ``RegularityChecker.check`` and
  ``find_new_old_inversions`` (not ``liveness`` nor ``digest``: no
  tracked container per operation), and ``repro.exec.runner.execute``
  ends each paused cell with ``gc.collect(0)``, reclaiming a dropped
  system (one big cycle) without walking the host's heap.  The switch is
  process-wide, nests and goes back in ``finally`` as the caller left
  it; the first allocation after that sets off one young collection over
  what the phase built (CPython counts allocations while paused).  A
  handler that *does* drop cycles during a very long drain has them wait
  for the first collection after the drain returns: drive in slices
  (``run_until`` per stretch) if that matters.  ``step()`` is not a bulk
  path and leaves the collector alone.

Every source of nondeterminism in a simulation must flow through the
seeded RNG streams (:mod:`repro.sim.rng`); given the same configuration
and seed, two runs produce byte-identical traces.  The whole test
strategy of the library leans on this property.

One module outside this file uses the private primitives: the
network's delivery plane (``net/network.py``) calls
:meth:`EventScheduler._push` (validating the instant and advancing
``_sequence`` / ``_live`` itself), :meth:`~EventScheduler._schedule_vector`
and :meth:`~EventScheduler._fan_in`.
Everything else schedules through the public methods.
"""

from __future__ import annotations

import gc
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from itertools import islice, repeat
from math import isfinite
from operator import itemgetter, le
from typing import Any, Callable, Iterable, Iterator, Sequence

from .clock import Time
from .errors import ClockError, SchedulerError
from .events import Event, Priority, SlabEntry

_INF = float("inf")
_DELIVERY = int(Priority.DELIVERY)

#: ``(time, priority, sequence, item, *fields)`` — at least four fields;
#: the rest is the push's own data, read only by the slab item's
#: ``fire(entry)``.  The item is an :class:`Event` or a
#: :class:`SlabEntry`.
QueueEntry = tuple[Any, ...]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Hold the cyclic collector off for a bulk-allocation phase and
    hand it back as found (see the module's *memory* note).  Nests, and
    leaves a collector the caller had already disabled disabled."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class EventScheduler:
    """A deterministic discrete-event scheduler on a calendar queue.

    >>> engine = EventScheduler()
    >>> fired = []
    >>> _ = engine.schedule(5.0, fired.append, "late")
    >>> _ = engine.schedule(1.0, fired.append, "early")
    >>> engine.run()
    2
    >>> fired
    ['early', 'late']
    >>> engine.now
    5.0

    Entries land in per-epoch buckets — ``epoch = int(time /
    bucket_width)``.  Three regions hold every pending entry:

    * ``_buckets``: future epochs (``epoch > _cur_epoch``), unsorted;
    * ``_cur[_pos:]``: the active epoch, sorted, consumed by index;
    * ``_overflow``: a small heap for entries pushed *into* the active
      epoch or earlier (a zero-delay ``schedule``, same-instant
      re-scheduling, a vector's head that falls there) — anything whose
      order the already-sorted ``_cur`` cannot absorb.

    Filed vectors (``_vectors``) and fan-in columns (``_fan_ins``) sit
    beside the buckets: each is expanded into its epoch's bucket when
    that epoch is activated.

    Correctness leans on one invariant: every ``_overflow`` entry has
    ``epoch <= _cur_epoch`` and every bucket entry, column entry and
    pending vector instant ``epoch > _cur_epoch``; since the epoch
    function is monotone in time, all overflow entries strictly precede
    every other entry, so the global minimum is always
    ``min(_cur[_pos], _overflow[0])`` — an exact merge on the full
    tuple order.

    ``bucket_width`` should sit at or below the delay model's minimum
    message delay (the simulation's natural tick; the runtime derives
    ``δ/25`` for a standalone system and a cluster's shared engine
    alike): arrivals then always land in a *future* bucket and the
    overflow heap stays empty on the hot path.  Width only affects
    speed, never ordering.
    """

    def __init__(self, start: Time = 0.0, bucket_width: float = 1.0) -> None:
        if start < 0:
            raise ClockError(f"cannot start the clock at {start!r}")
        if not (0.0 < bucket_width < _INF):
            raise SchedulerError(
                f"bucket width must be positive and finite, got {bucket_width!r}"
            )
        self._now: Time = float(start)
        self._width = float(bucket_width)
        self._winv = 1.0 / self._width
        self._buckets: dict[int, list[QueueEntry]] = {}
        # Replies filed by :meth:`_fan_in`, by epoch: ``(instants,
        # sequences, pointers)``, four pointers a reply.
        self._fan_ins: dict[int, tuple[array, array, list[Any]]] = {}
        self._bucket_slots = 0  # entries across every future bucket and column
        # Vectors by the epoch of their next instant, chained through
        # their first field: ``[following, next position, instants,
        # fields, base, repeat(priority), repeat(item), *tail repeats]``.
        self._vectors: dict[int, list[Any]] = {}
        self._epochs: list[int] = []  # heap of epochs with a bucket, vector or fan-in
        self._cur: list[QueueEntry] = []
        self._pos = 0
        self._overflow: list[QueueEntry] = []
        self._cur_epoch = -1
        self._sequence = 0
        self._running = False
        self._fired_count = 0
        self._live = 0  # non-cancelled logical events still in the queue
        self._dead = 0  # cancelled entries still occupying queue slots

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> Time:
        """The current simulated instant."""
        return self._now

    @property
    def pending_count(self) -> int:
        """The number of live (non-cancelled) events still queued.

        O(1): the counter is maintained on schedule, cancel and fire
        instead of scanning the queue.  A slab entry counts as its
        ``size`` logical events and a vector as its unfired items, so
        batching never changes the number.
        """
        return self._live

    @property
    def fired_count(self) -> int:
        """The number of logical events executed since construction."""
        return self._fired_count

    def next_event_time(self) -> Time | None:
        """When the next live event fires, or ``None`` if the queue is
        empty.  The explorer uses this to tell a quiesced system (all
        operations resolved, nothing left to do) from a stalled one."""
        entry, _ = self._front()
        return entry[0] if entry is not None else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: Time,
        callback: Callable[..., None],
        *args: Any,
        priority: int = Priority.TIMER,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` units from now."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule {delay!r} units in the past")
        return self.schedule_at(
            self._now + delay, callback, *args, priority=priority, label=label
        )

    def schedule_at(
        self,
        instant: Time,
        callback: Callable[..., None],
        *args: Any,
        priority: int = Priority.TIMER,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``instant``."""
        instant = float(instant)
        # One comparison chain rejects past instants AND the non-finite
        # ones: NaN fails the first comparison, +inf fails the second
        # (both would otherwise corrupt queue ordering silently).
        if not (self._now <= instant < _INF):
            self._reject_instant(instant)
        sequence = self._sequence
        event = Event(
            time=instant,
            priority=int(priority),
            sequence=sequence,
            callback=callback,
            args=args,
            label=label,
        )
        event._owner = self
        self._sequence = sequence + 1
        self._live += 1
        self._push((instant, event.priority, sequence, event))
        return event

    def schedule_slab(
        self, instant: Time, priority: int, entry: SlabEntry, *fields: Any
    ) -> None:
        """Schedule one push of a never-cancelled slab entry.

        One queue slot stands for ``entry.size`` logical events; the
        entry's ``fire(queue_entry)`` performs them all and finds
        ``fields`` at ``queue_entry[4:]``.  See
        :class:`~repro.sim.events.SlabEntry` for the contract.
        """
        if not (self._now <= instant < _INF):
            self._reject_instant(instant)
        self._push((instant, priority, self._sequence, entry, *fields))
        self._sequence += 1
        self._live += entry.size

    def schedule_series(
        self,
        instants: Iterable[Time],
        callback: Callable[[Any], None],
        items: Sequence[Any],
        priority: int = Priority.TIMER,
    ) -> None:
        """Schedule ``callback(items[k])`` at ``instants[k]`` for every
        ``k``, never cancellable.

        Indistinguishable from ``schedule_at(instants[k], callback,
        items[k], priority=priority)`` called for ``k = 0, 1, ...``: the
        same block of sequence numbers is reserved and ``pending_count``
        grows by ``len(items)`` now, so firing order, counters and the
        sequence handed to whatever is scheduled next all agree.  The
        series is one vector (:meth:`_schedule_vector`), which is why
        ``instants`` must already be non-decreasing (a stable sort by
        instant is what the per-item calls' order amounts to).

        An ``array('d')`` of instants is filed as it is — the series
        keeps it and ``items`` until the clock passes them, so neither
        may change — and anything else is read into one first.  The
        instants are checked in one C-level pass; only a series that
        fails it is walked, to name the first bad position.
        """
        if not (isinstance(instants, array) and instants.typecode == "d"):
            instants = array("d", instants)
        count = len(items)
        if len(instants) != count:
            raise SchedulerError(f"{len(instants)} instants for {count} items")
        previous = self._now
        # NaN fails every comparison, +inf the last one's.
        if count and not (
            previous <= instants[0]
            and instants[-1] < _INF
            and all(map(le, instants, islice(instants, 1, None)))
        ):
            for position, instant in enumerate(instants):
                if not (previous <= instant < _INF):
                    raise SchedulerError(
                        f"cannot schedule series position {position} at "
                        f"{instant!r}: instants must be finite and never "
                        f"decrease, and {previous!r} comes before it"
                    )
                previous = instant
        if count:
            self._schedule_vector(
                instants, int(priority), _Series(callback), items, ()
            )

    def _schedule_vector(
        self,
        instants: Sequence[Time],
        priority: int,
        item: SlabEntry,
        fields: Sequence[Any],
        tail: tuple[Any, ...],
    ) -> None:
        """Schedule ``(instants[k], priority, base + k, item, fields[k],
        *tail)`` for every ``k`` under a reserved block of sequence
        numbers from ``base``: exactly the per-item pushes, ties
        included.  Callers validate: ``instants`` is non-empty, finite,
        non-decreasing and not in the past; ``item.size`` is 1.

        Instants in the active epoch or earlier go to the overflow heap
        now; the rest is filed under the epoch of its next instant, and
        :meth:`_advance_epoch` builds each epoch's slice."""
        count = len(instants)
        base = self._sequence
        self._sequence = base + count
        self._live += count
        lo = bisect_left(instants, self._cur_epoch + 1, key=self._winv.__mul__)
        for k in range(lo):
            heappush(
                self._overflow,
                (instants[k], priority, base + k, item, fields[k], *tail),
            )
        if lo < count:
            self._file(
                [None, lo, instants, fields, base, repeat(priority),
                 repeat(item), *map(repeat, tail)],
                int(instants[lo] * self._winv),
            )

    def _file(self, vector: list[Any], epoch: int) -> None:
        """File a vector under ``epoch``, the epoch of its next instant,
        at the head of that epoch's chain."""
        vectors = self._vectors
        following = vectors.get(epoch)
        vector[0] = following
        vectors[epoch] = vector
        if (
            following is None
            and epoch not in self._buckets
            and epoch not in self._fan_ins
        ):
            heappush(self._epochs, epoch)

    def _fan_in(
        self, instant: Time, item: SlabEntry, dest: Any, sender: Any, payload: Any
    ) -> None:
        """Schedule ``(instant, DELIVERY, sequence, item, dest, sender,
        payload, None)`` under the next sequence number, as a push of
        that tuple would, filed in its epoch's columns.  The caller
        validates the instant; ``item.size`` is 1.

        An instant in the active epoch or earlier goes to the overflow
        heap as the tuple; :meth:`_advance_epoch` zips the rest."""
        sequence = self._sequence
        self._sequence = sequence + 1
        self._live += 1
        epoch = int(instant * self._winv)
        if epoch <= self._cur_epoch:
            heappush(
                self._overflow,
                (instant, _DELIVERY, sequence, item, dest, sender, payload, None),
            )
            return
        columns = self._fan_ins.get(epoch)
        if columns is None:
            columns = self._fan_ins[epoch] = (array("d"), array("q"), [])
            if epoch not in self._buckets and epoch not in self._vectors:
                heappush(self._epochs, epoch)
        instants, sequences, pointers = columns
        instants.append(instant)
        sequences.append(sequence)
        pointers.append(item)
        pointers.append(dest)
        pointers.append(sender)
        pointers.append(payload)
        self._bucket_slots += 1

    def _reject_instant(self, instant: Time) -> None:
        if isfinite(instant):
            raise SchedulerError(
                f"cannot schedule at {instant!r}, the clock already reads "
                f"{self._now!r}"
            )
        raise SchedulerError(
            f"cannot schedule at non-finite instant {instant!r}"
        )

    def _push(self, entry: QueueEntry) -> None:
        """The enqueue primitive.  Callers validate the instant and
        advance ``_sequence`` / ``_live`` themselves."""
        epoch = int(entry[0] * self._winv)
        if epoch <= self._cur_epoch:
            heappush(self._overflow, entry)
        else:
            buckets = self._buckets
            bucket = buckets.get(epoch)
            if bucket is None:
                buckets[epoch] = [entry]
                if epoch not in self._vectors and epoch not in self._fan_ins:
                    heappush(self._epochs, epoch)
            else:
                bucket.append(entry)
            self._bucket_slots += 1

    # ------------------------------------------------------------------
    # Lazy deletion / compaction
    # ------------------------------------------------------------------

    def _occupied_slots(self) -> int:
        """Queue slots in use, live and dead alike (a filed vector's
        items take none; a fan-in column entry takes one).  O(1): the
        active regions know their lengths and ``_bucket_slots`` is kept
        exact by :meth:`_push`, :meth:`_fan_in`, :meth:`_advance_epoch`
        and :meth:`_compact`."""
        return (
            len(self._cur) - self._pos + len(self._overflow) + self._bucket_slots
        )

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for events still in the queue."""
        self._live -= 1
        self._dead += 1
        # Compact when dead entries outnumber live slots, so lazy
        # deletion stays O(1) amortized without unbounded queue growth
        # under cancel-heavy workloads (e.g. migration retry storms).
        if self._dead > self._occupied_slots() - self._dead:
            self._compact()

    def _compact(self) -> None:
        # Every region is rewritten *in place* past any consumed prefix,
        # so a draining frame's local aliases (and its synced ``_pos``)
        # stay valid.
        pos = self._pos
        cur = self._cur
        cur[pos:] = _drop_cancelled(cur[pos:])
        overflow = self._overflow
        overflow[:] = _drop_cancelled(overflow)
        heapify(overflow)
        buckets = self._buckets
        slots = 0
        for epoch in list(buckets):
            bucket = buckets[epoch]
            bucket[:] = _drop_cancelled(bucket)
            if bucket:
                slots += len(bucket)
            else:
                del buckets[epoch]
        # Column entries are never cancelled: they only count.
        for instants, _, _ in self._fan_ins.values():
            slots += len(instants)
        self._bucket_slots = slots
        self._epochs[:] = (
            buckets.keys() | self._vectors.keys() | self._fan_ins.keys()
        )
        heapify(self._epochs)
        self._dead = 0

    # ------------------------------------------------------------------
    # Front selection
    # ------------------------------------------------------------------

    def _advance_epoch(self) -> bool:
        """Activate the next non-empty epoch; ``False`` when drained.
        ``_cur`` is exhausted here: its entries are freed before the
        epoch's vectors and columns build theirs."""
        self._cur.clear()
        self._pos = 0
        epochs = self._epochs
        buckets = self._buckets
        vectors = self._vectors
        fan_ins = self._fan_ins
        winv = self._winv
        while epochs:
            epoch = heappop(epochs)
            bucket = buckets.pop(epoch, None)
            if bucket is None:
                bucket = []
            else:
                self._bucket_slots -= len(bucket)
            vector = vectors.pop(epoch, None)
            while vector is not None:
                following, lo, instants, fields, base, priority, item, *tail = (
                    vector
                )
                # ``int(t * winv) <= epoch`` for t >= 0, bisected.
                hi = bisect_left(instants, epoch + 1, lo, key=winv.__mul__)
                bucket.extend(zip(
                    instants[lo:hi], priority, range(base + lo, base + hi),
                    item, fields[lo:hi], *tail,
                ))
                if hi < len(instants):
                    vector[1] = hi
                    self._file(vector, int(instants[hi] * winv))
                vector = following
            columns = fan_ins.pop(epoch, None)
            if columns is not None:
                instants, sequences, pointers = columns
                self._bucket_slots -= len(instants)
                # One iterator four times over: zip takes each reply's
                # four pointers in turn.
                fields = iter(pointers)
                bucket.extend(zip(
                    instants, repeat(_DELIVERY), sequences,
                    fields, fields, fields, fields, repeat(None),
                ))
            if bucket:
                bucket.sort(key=itemgetter(0))  # floats alone first
                bucket.sort()
                self._cur = bucket
                self._cur_epoch = epoch
                return True
        return False

    def _front(self) -> tuple[QueueEntry | None, bool]:
        """The next live entry and whether it sits in the overflow heap;
        cancelled entries met on the way are discarded."""
        overflow = self._overflow
        while True:
            cur = self._cur
            pos = self._pos
            if pos < len(cur):
                entry = cur[pos]
                from_overflow = bool(overflow) and overflow[0] < entry
                if from_overflow:
                    entry = overflow[0]
            elif overflow:
                entry = overflow[0]
                from_overflow = True
            elif self._advance_epoch():
                continue
            else:
                return None, False
            if not entry[3].cancelled:
                return entry, from_overflow
            # Cancelled events already left the live count (Event.cancel
            # notifies the owner); mark them consumed for symmetry.
            self._pop_front(from_overflow)
            entry[3]._consumed = True
            self._dead -= 1

    def _pop_front(self, from_overflow: bool) -> None:
        if from_overflow:
            heappop(self._overflow)
        else:
            self._pos += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next queue entry.  Returns ``False`` if none
        remain.  A slab entry fires its whole delivery vector."""
        entry, from_overflow = self._front()
        if entry is None:
            return False
        self._pop_front(from_overflow)
        self._now = entry[0]
        item = entry[3]
        if item.__class__ is Event:
            item._consumed = True
            self._live -= 1
            self._fired_count += 1
            item.fire()
        else:
            self._live -= item.size
            self._fired_count += item.size
            item.fire(entry)
        return True

    def run(self, max_events: int | None = None) -> int:
        """Run until the queue drains (or ``max_events`` fired).

        Returns the number of logical events executed by this call.
        """
        return self._drain(until=None, max_events=max_events)

    def run_until(self, horizon: Time, max_events: int | None = None) -> int:
        """Run every event with ``time <= horizon`` and park the clock there.

        Events scheduled beyond the horizon stay queued, so a simulation
        can be resumed with a later horizon.  Returns the number of
        logical events executed by this call.
        """
        if not (self._now <= horizon < _INF):
            raise SchedulerError(
                f"horizon {horizon!r} is before current time {self._now!r} "
                f"or not finite"
            )
        fired = self._drain(until=horizon, max_events=max_events)
        self._now = float(horizon)
        return fired

    @collector_paused()
    def _drain(self, until: Time | None, max_events: int | None) -> int:
        if self._running:
            raise SchedulerError("the scheduler is not reentrant")
        self._running = True
        fired = 0
        # Normalize both bounds to plain float comparisons so the loop
        # body carries no None tests (``entry[0] > inf`` is never true).
        horizon = _INF if until is None else until
        limit = _INF if max_events is None else max_events
        # No epoch past the horizon's is activated, so a parked drive
        # builds no entries early and keeps the overflow heap empty.
        last_epoch = _INF if until is None else int(until * self._winv)
        epochs = self._epochs
        pop = heappop
        event_cls = Event
        # The overflow heap is only ever mutated in place (heappush,
        # heappop, ``[:] =`` in ``_compact``), so one alias serves the
        # whole drain.  ``_cur``/``_pos`` are read fresh each iteration:
        # a fired handler may trigger compaction (rewrites the regions
        # in place) or even advance the epoch via ``next_event_time`` —
        # cheap attribute loads keep the loop correct under both.
        overflow = self._overflow
        try:
            while fired < limit:
                cur = self._cur
                pos = self._pos
                if pos < len(cur):
                    entry = cur[pos]
                    if overflow and overflow[0] < entry:
                        entry = overflow[0]
                        from_overflow = True
                    else:
                        from_overflow = False
                elif overflow:
                    entry = overflow[0]
                    from_overflow = True
                else:
                    if not epochs or epochs[0] > last_epoch:
                        break
                    self._advance_epoch()
                    continue
                item = entry[3]
                # Only full events can be cancelled (slab entries never
                # are), so the class check guards the ``cancelled``
                # load — slab items skip it entirely.
                if item.__class__ is event_cls:
                    if item.cancelled:
                        if from_overflow:
                            pop(overflow)
                        else:
                            self._pos = pos + 1
                        item._consumed = True
                        self._dead -= 1
                        continue
                    if entry[0] > horizon:
                        break
                    if from_overflow:
                        pop(overflow)
                    else:
                        self._pos = pos + 1
                    # Queue order plus schedule-time validation guarantee
                    # monotonicity, so the clock is assigned directly.
                    self._now = entry[0]
                    item._consumed = True
                    fired += 1
                    item.fire()
                else:
                    if entry[0] > horizon:
                        break
                    if from_overflow:
                        pop(overflow)
                    else:
                        self._pos = pos + 1
                    self._now = entry[0]
                    fired += item.size
                    item.fire(entry)
        finally:
            self._running = False
            # The live/fired counters drain in bulk: nothing inside the
            # loop reads them (handlers schedule, which only adds), and
            # every introspection site samples between runs.
            self._live -= fired
            self._fired_count += fired
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventScheduler(now={self._now!r}, width={self._width!r}, "
            f"pending={self.pending_count}, fired={self._fired_count})"
        )


class _Series(SlabEntry):
    """The item of :meth:`EventScheduler.schedule_series`: one logical
    event per entry, the series' item riding the queue tuple."""

    __slots__ = ("callback",)

    def __init__(self, callback: Callable[[Any], None]) -> None:
        self.callback = callback

    def fire(self, entry: QueueEntry) -> None:
        self.callback(entry[4])


def _drop_cancelled(entries: list[QueueEntry]) -> list[QueueEntry]:
    """The live entries of one queue region, in order; the cancelled
    ones are marked consumed so a late ``cancel()`` stays a no-op."""
    survivors = []
    for entry in entries:
        if entry[3].cancelled:
            entry[3]._consumed = True
        else:
            survivors.append(entry)
    return survivors
