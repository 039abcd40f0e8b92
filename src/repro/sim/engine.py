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
  data, so a message delivery is its queue tuple and nothing else,
  and a whole series of timed callbacks (:meth:`schedule_series`: an
  installed workload plan) is one entry that re-pushes itself;
* the queue is an array-backed *calendar*: instants quantize into
  buckets one tick wide, each bucket a flat append-only list sorted
  lazily (one C call) when the clock reaches its epoch.  A push is a
  list append and a pop is an index increment; the total order is
  exactly ``(time, priority, sequence)`` at any bucket width;
* cancelling an event marks it dead in place (lazy deletion), which
  keeps cancellation O(1); when dead entries outnumber live ones the
  queue is compacted in place, so cancel-heavy workloads (migration
  retry storms) cannot grow it without bound;
* the clock only ever moves when an entry is dequeued, so a handler
  always observes ``engine.now`` equal to its own firing time;
* memory: reference counting is the kernel's memory manager.  A live
  simulation makes no cyclic garbage
  (``tests/sim/test_collector.py::TestALiveRunMakesNoCycles``: a full
  collection after a collector-free run finds 0 unreachable objects),
  while every automatic collection walks the in-flight queue tuples to
  find nothing — a quarter of a churn-heavy drive.  So
  :func:`collector_paused` holds CPython's cyclic collector off inside
  ``_drain`` and at the bulk-allocation sites (the population build,
  the plan install, the checkers), and ``repro.exec.runner.execute``
  ends each cell with one young collection, which is where a dropped
  system — one big cycle — is reclaimed.  The switch is process-wide
  and goes back in ``finally`` exactly as the caller left it; the
  first allocation after that sets off one young collection over what
  the phase built (CPython counts allocations while paused).  A
  handler that *does* drop cycles during a very long drain has them
  wait for the first collection after the drain returns: drive in
  slices (``run_until`` per stretch) if that matters.  ``step()`` is
  not a bulk path and leaves the collector alone.

Every source of nondeterminism in a simulation must flow through the
seeded RNG streams (:mod:`repro.sim.rng`); given the same configuration
and seed, two runs produce byte-identical traces.  The whole test
strategy of the library leans on this property.

One caller outside this file inlines its pushes: the network's
delivery plane (``net/network.py``) validates the instant, calls
:meth:`EventScheduler._push` and advances ``_sequence`` / ``_live``
itself.  Everything else schedules through the public methods.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from math import isfinite
from typing import Any, Callable, Iterable, Iterator, Sequence, Union

from .clock import Time
from .errors import ClockError, SchedulerError
from .events import Event, Priority, SlabEntry

_INF = float("inf")

#: What a queue entry's item slot may hold.
QueueItem = Union[Event, SlabEntry]
#: ``(time, priority, sequence, item, *fields)`` — at least four fields;
#: the rest is the push's own data, read only by the slab item's
#: ``fire(entry)``.
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
      epoch or earlier (``call_soon``, same-instant re-scheduling) —
      anything whose order the already-sorted ``_cur`` cannot absorb.

    Correctness leans on one invariant: every ``_overflow`` entry has
    ``epoch <= _cur_epoch`` and every bucket entry ``epoch >
    _cur_epoch``; since the epoch function is monotone in time, all
    overflow entries strictly precede all bucket entries, so the global
    minimum is always ``min(_cur[_pos], _overflow[0])`` — an exact
    merge on the full tuple order.

    ``bucket_width`` should sit at or below the delay model's minimum
    message delay (the simulation's natural tick; the runtime derives
    ``δ/25``): arrivals then always land in a *future* bucket and the
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
        self._bucket_slots = 0  # entries across every future bucket
        self._epochs: list[int] = []  # heap of epochs with a bucket
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
        ``size`` logical events and a series as its unfired items, so
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

    def iter_pending(self) -> Iterator[QueueItem]:
        """Yield live pending items in firing order (for diagnostics).

        Slab entries appear as themselves — one item per queue slot,
        not one per logical delivery."""
        return (entry[3] for entry in self._pending_entries())

    def _pending_entries(self) -> list[QueueEntry]:
        """The live queue entries, whole, in firing order."""
        entries = list(self._overflow)
        entries.extend(self._cur[self._pos :])
        for bucket in self._buckets.values():
            entries.extend(bucket)
        entries.sort()
        return [entry for entry in entries if not entry[3].cancelled]

    def __len__(self) -> int:
        return self.pending_count

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
        ``k``, never cancellable, in one queue slot.

        Indistinguishable from ``schedule_at(instants[k], callback,
        items[k], priority=priority)`` called for ``k = 0, 1, ...``: the
        same block of sequence numbers is reserved and ``pending_count``
        grows by ``len(items)`` now, so firing order, counters and the
        sequence handed to whatever is scheduled next all agree.  Only
        the next item is queued: entry ``k + 1`` is pushed as entry
        ``k`` fires, which is why ``instants`` must already be
        non-decreasing (a stable sort by instant is what the per-item
        calls' ``(time, priority, sequence)`` order amounts to).
        """
        instants = list(map(float, instants))
        count = len(items)
        if len(instants) != count:
            raise SchedulerError(f"{len(instants)} instants for {count} items")
        previous = self._now
        for position, instant in enumerate(instants):
            # NaN fails the first comparison, +inf the second.
            if not (previous <= instant < _INF):
                raise SchedulerError(
                    f"cannot schedule series position {position} at "
                    f"{instant!r}: instants must be finite and never "
                    f"decrease, and {previous!r} comes before it"
                )
            previous = instant
        if not count:
            return
        sequence = self._sequence
        self._sequence = sequence + count
        self._live += count
        series = _Series(self, instants, callback, items)
        self._push((instants[0], int(priority), sequence, series, 0))

    def call_soon(
        self,
        callback: Callable[..., None],
        *args: Any,
        priority: int = Priority.OPERATION,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at the current instant (after running events)."""
        return self.schedule_at(
            self._now, callback, *args, priority=priority, label=label
        )

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
                heappush(self._epochs, epoch)
            else:
                bucket.append(entry)
            self._bucket_slots += 1

    # ------------------------------------------------------------------
    # Lazy deletion / compaction
    # ------------------------------------------------------------------

    def _occupied_slots(self) -> int:
        """Queue slots in use, live and dead alike.  O(1): the active
        regions know their lengths and ``_bucket_slots`` is kept exact
        by :meth:`_push`, :meth:`_advance_epoch` and :meth:`_compact`."""
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
        self._bucket_slots = slots
        self._epochs[:] = list(buckets)
        heapify(self._epochs)
        self._dead = 0

    # ------------------------------------------------------------------
    # Front selection
    # ------------------------------------------------------------------

    def _advance_epoch(self) -> bool:
        """Activate the next non-empty bucket; ``False`` when drained."""
        epochs = self._epochs
        buckets = self._buckets
        while epochs:
            epoch = heappop(epochs)
            bucket = buckets.pop(epoch, None)
            if bucket:
                self._bucket_slots -= len(bucket)
                bucket.sort()
                self._cur = bucket
                self._pos = 0
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
                    if not self._advance_epoch():
                        break
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
    event per push, the position in the series riding the queue tuple.
    Entry ``k`` pushes entry ``k + 1`` — under the next reserved
    sequence number — before it calls back, so the queue never lacks
    the series' next instant while the callback schedules around it."""

    __slots__ = ("push", "instants", "callback", "items")

    def __init__(
        self,
        engine: EventScheduler,
        instants: list[Time],
        callback: Callable[[Any], None],
        items: Sequence[Any],
    ) -> None:
        self.push = engine._push
        self.instants = instants
        self.callback = callback
        self.items = items

    def fire(self, entry: QueueEntry) -> None:
        position = entry[4]
        following = position + 1
        instants = self.instants
        if following < len(instants):
            self.push(
                (instants[following], entry[1], entry[2] + 1, self, following)
            )
        self.callback(self.items[position])


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
