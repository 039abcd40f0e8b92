"""Event records and handles used by the scheduler.

An *event* is a callback bound to a firing time.  Events are totally
ordered by ``(time, priority, sequence)``:

* ``time`` — the simulated instant at which the event fires;
* ``priority`` — a small integer used to give simultaneous events a
  deterministic, semantically meaningful order (message deliveries
  happen before churn, churn before measurement probes, ...);
* ``sequence`` — a monotonically increasing counter that breaks the
  remaining ties in scheduling order, making every run reproducible.

``Event`` is a ``__slots__`` class rather than a dataclass: millions of
instances are created per large run, and slots cut both the per-event
memory and the attribute-access cost on the scheduler's hot path.

Message deliveries do not pay for an ``Event`` at all: the scheduler's
queue holds plain tuples that start ``(time, priority, sequence,
item)``, and an item may be a :class:`SlabEntry`, which is fired with
the queue entry it was popped from — so one long-lived item serves
every entry that carries its own data in the tuple's tail (a network's
deliveries, point-to-point and broadcast alike; an installed workload
plan's ops, each entry carrying its op).  Slab entries are never
cancellable (``cancelled`` is a class attribute, so the scheduler's
lazy-deletion scan pays one shared attribute read, no per-entry
state), which is exactly why they can skip the cancellation
bookkeeping full events carry.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from .clock import Time
from .errors import EventCancelledError


class Priority(enum.IntEnum):
    """Deterministic ordering of simultaneous events.

    Lower values fire first.  The tiers encode the causality the paper
    assumes within one time unit: messages are delivered, then local
    protocol timers fire, then the churn adversary acts, then the
    measurement probes observe the resulting state.
    """

    DELIVERY = 0
    TIMER = 10
    OPERATION = 20
    CHURN = 30
    PROBE = 40
    HORIZON = 50


class SlabEntry:
    """Base class for never-cancelled slab queue entries.

    Each queue entry naming a slab item stands for ``size`` logical
    events.  The scheduler's contract:

    * ``cancelled`` is always ``False`` — slab entries cannot be
      cancelled, which is what lets them skip ``Event``'s owner /
      consumed bookkeeping entirely;
    * ``size`` is the number of logical events one push represents;
      it feeds the scheduler's ``pending_count`` / ``fired_count`` so
      batching is invisible to every counter-reading observer;
    * ``fire(entry)`` performs all ``size`` of them and receives the
      queue entry just popped — ``(time, priority, sequence, self,
      *fields)``, the ``fields`` being whatever the push carried — so
      an entry whose pushes differ only in data keeps that data in the
      tuple and needs no object per push.

    Schedule via :meth:`EventScheduler.schedule_slab`, or as a
    pre-sorted vector of entries that share the item
    (:meth:`EventScheduler.schedule_series` builds its own item; the
    network files each dense fault-free fan-out with
    ``EventScheduler._schedule_vector``).
    """

    __slots__ = ()

    cancelled = False
    size = 1

    def fire(self, entry: tuple) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Event:
    """A scheduled callback.  Instances are owned by the scheduler.

    The comparison order *is* the execution order, which is why the
    callback and its arguments are excluded from comparisons.

    ``_owner`` (set by the scheduler) lets :meth:`cancel` keep the
    owner's live-event counter exact without a queue scan; ``_consumed``
    marks events the scheduler already removed from its queue, so a
    late ``cancel()`` on a fired event does not corrupt the counter.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "args",
        "label",
        "cancelled",
        "_owner",
        "_consumed",
    )

    def __init__(
        self,
        time: Time,
        priority: int,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = cancelled
        self._owner: Any = None
        self._consumed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def fire(self) -> None:
        """Invoke the callback.  Cancelled events must never be fired."""
        if self.cancelled:
            raise EventCancelledError(
                f"event {self.label or self.sequence} fired after cancellation"
            )
        self.callback(*self.args)

    def cancel(self) -> None:
        """Mark the event so the scheduler discards it instead of firing."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None and not self._consumed:
            owner._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.callback, "__qualname__", "<fn>")
        return f"Event(t={self.time!r}, prio={self.priority}, {name}, {state})"
