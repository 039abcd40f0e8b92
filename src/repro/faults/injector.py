"""The runtime that applies a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` lives behind the network's fault gate
(``Network.faults``).  The network consults it at three points:

* :meth:`on_transmit` — when a delivery is about to be scheduled
  (both point-to-point sends and broadcast fan-out instances).  Delay
  spikes and defer-partitions adjust the arrival time; drop-partitions
  and message loss veto the delivery outright.
* :meth:`drop_at_deliver` — when a scheduled delivery fires:
  drop-partitions active at the arrival instant swallow in-flight
  messages.
* :meth:`crash_at_deliver` — consulted only for messages that survived
  every drop (fault and departed-destination alike), so a crash
  occurrence counter counts genuinely deliverable messages.  The
  victim departs *before* the message lands, so a crash of the
  destination also drops the triggering message, exactly like any
  other departure.

Only a drop-mode partition or a crash can act when a delivery *fires*;
:attr:`FaultInjector.gates_delivery` says whether the plan has one, and
the network dispatches deliveries inline at its fire sites otherwise.

The window index: :meth:`on_transmit` does not scan the plan.  The
sorted ``start`` / ``end`` instants of the windowed faults cut the time
line into stretches on which the set of live faults is constant, and
the injector keeps the live spikes, partitions and losses of the
stretch ``[_from, _until)`` holding the last ``now`` it saw —
re-resolved by bisection whenever ``now`` leaves it, in either
direction — with the live losses split further, lazily, per
payload-type name.  Contract (held to the full scan by
``tests/properties/test_fault_properties.py``): plan order, spikes →
partitions → losses, every counter moves on the same message, and the
RNG is drawn exactly when a loss's window, type and link all match.

Idle on this stretch: a payload class that passed :meth:`on_transmit`
with no spike or partition live and no live loss naming its type is
untouched until the stretch ends, whoever sends it.  :meth:`idle_for`
says so, under the test ``on_transmit`` opens with, and a caller may
skip the call on its word (the network's two hot transmit sites do);
:meth:`_resolve` forgets every class, so each window edge, and a ``now``
that moved back, starts from nothing proven.

Determinism: the injector draws randomness from a single dedicated
stream (``faults.injector``) and only when a loss fault actually
matches a message, so an installed-but-idle plan consumes no entropy
and a fixed seed replays the exact same fault schedule.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Any, Callable

from ..sim.clock import Time
from .plan import FaultPlan, LossFault, _on_link

_INF = float("inf")

#: Drop reasons stamped on trace records and counters.
REASON_LOSS = "loss"
REASON_PARTITION = "partition"
REASON_DEPARTED = "departed"


class FaultInjector:
    """Applies one plan to one run; keeps per-cause accounting."""

    __slots__ = (
        "plan",
        "_rng",
        "crash_hook",
        "lost_count",
        "partition_dropped_count",
        "deferred_count",
        "spiked_count",
        "crashes_fired",
        "_crash_seen",
        "_crash_done",
        "_edges",
        "_from",
        "_until",
        "_spikes",
        "_partitions",
        "_losses",
        "_typed_losses",
        "_idle",
    )

    def __init__(
        self,
        plan: FaultPlan,
        rng: random.Random,
        crash_hook: Callable[[str], None] | None = None,
    ) -> None:
        self.plan = plan
        self._rng = rng
        #: Called with the victim pid when a crash fault fires; wired by
        #: :meth:`~repro.runtime.system.DynamicSystem.install_faults`.
        #: Without a hook, crash faults are inert (bare-network tests).
        self.crash_hook = crash_hook
        self.lost_count = 0
        self.partition_dropped_count = 0
        self.deferred_count = 0
        self.spiked_count = 0
        self.crashes_fired = 0
        self._crash_seen = [0] * len(plan.crashes)
        self._crash_done = [False] * len(plan.crashes)
        # The window index (module docstring).  The stretch starts out
        # empty, so the first transmission resolves it.
        self._edges = sorted(
            {
                instant
                for fault in (*plan.spikes, *plan.partitions, *plan.losses)
                for instant in (fault.start, fault.end)
                if instant is not None
            }
        )
        self._from, self._until = _INF, -_INF
        self._spikes = self._partitions = self._losses = ()
        self._typed_losses: dict[str, tuple[LossFault, ...]] = {}
        self._idle: set[type] = set()

    @property
    def gates_delivery(self) -> bool:
        """Can the plan act when a delivery *fires* (the two
        ``*_at_deliver`` hooks)?  Every other fault is settled at
        transmission."""
        return bool(self.plan.crashes) or any(
            partition.mode == "drop" for partition in self.plan.partitions
        )

    def idle_for(self, payload_class: type, now: Time) -> bool:
        """Is ``payload_class`` proven untouched at ``now`` (module
        docstring)?  Then :meth:`on_transmit` would change nothing."""
        return payload_class in self._idle and self._from <= now < self._until

    def _resolve(self, now: Time) -> None:
        """Re-anchor the index on the stretch that holds ``now``."""
        edges = self._edges
        index = bisect_right(edges, now)
        self._from = edges[index - 1] if index else -_INF
        self._until = edges[index] if index < len(edges) else _INF
        plan = self.plan
        self._spikes = _live_at(plan.spikes, now)
        self._partitions = _live_at(plan.partitions, now)
        self._losses = _live_at(plan.losses, now)
        self._typed_losses = {}
        self._idle = set()

    # ------------------------------------------------------------------
    # Network hooks
    # ------------------------------------------------------------------

    def on_transmit(
        self,
        sender: str,
        dest: str,
        payload: Any,
        now: Time,
        deliver_at: Time,
        payload_type: str | None = None,
    ) -> tuple[Time, str | None]:
        """Filter one about-to-be-scheduled delivery.

        Returns ``(deliver_at, None)`` to let it through (possibly at a
        later instant) or ``(deliver_at, reason)`` to drop it.  Batched
        fan-out passes ``payload_type`` precomputed once per broadcast.
        """
        if not (self._from <= now < self._until):
            self._resolve(now)
        if payload_type is None:
            payload_type = type(payload).__name__
        for spike in self._spikes:
            types = spike.payload_types
            if (types is None or payload_type in types) and _on_link(
                spike, sender, dest
            ):
                deliver_at = now + spike.apply(deliver_at - now)
                self.spiked_count += 1
        for partition in self._partitions:
            if partition._cuts(sender, dest):
                if partition.mode == "drop":
                    self.partition_dropped_count += 1
                    return deliver_at, REASON_PARTITION
                if partition.end > deliver_at:
                    deliver_at = partition.end
                    self.deferred_count += 1
        losses = self._typed_losses.get(payload_type)
        if losses is None:
            losses = self._typed_losses[payload_type] = tuple(
                loss
                for loss in self._losses
                if loss.payload_types is None or payload_type in loss.payload_types
            )
            if not (losses or self._spikes or self._partitions):
                self._idle.add(payload.__class__)
        for loss in losses:
            if _on_link(loss, sender, dest):
                if self._rng.random() < loss.probability:
                    self.lost_count += 1
                    return deliver_at, REASON_LOSS
        return deliver_at, None

    def drop_at_deliver(self, sender: str, dest: str, now: Time) -> str | None:
        """Filter one firing delivery; returns a drop reason or ``None``."""
        for partition in self.plan.partitions:
            if partition.mode == "drop" and partition.severs(sender, dest, now):
                self.partition_dropped_count += 1
                return REASON_PARTITION
        return None

    def crash_at_deliver(self, sender: str, dest: str, payload_type: str) -> None:
        """Count one deliverable message against the crash faults.

        The caller must only pass deliveries that survived every drop —
        the occurrence counter means "the k-th message of this phase
        actually about to be delivered".  A triggered crash fires
        before the message reaches its handler.  ``payload_type`` is
        precomputed once per batch.
        """
        if not self.plan.crashes:
            return
        for index, crash in enumerate(self.plan.crashes):
            if self._crash_done[index]:
                continue
            if not crash.matches(sender, dest, payload_type):
                continue
            self._crash_seen[index] += 1
            if self._crash_seen[index] < crash.occurrence:
                continue
            self._crash_done[index] = True
            if self.crash_hook is not None:
                victim = dest if crash.victim == "dest" else sender
                self.crash_hook(victim)
                self.crashes_fired += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Per-cause totals, for reports and tests."""
        return {
            "lost": self.lost_count,
            "partition_dropped": self.partition_dropped_count,
            "deferred": self.deferred_count,
            "spiked": self.spiked_count,
            "crashes_fired": self.crashes_fired,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector({self.plan.describe()}, lost={self.lost_count}, "
            f"partition_dropped={self.partition_dropped_count}, "
            f"deferred={self.deferred_count}, spiked={self.spiked_count}, "
            f"crashes={self.crashes_fired})"
        )


def _live_at(faults: tuple[Any, ...], now: Time) -> tuple[Any, ...]:
    """The faults whose ``[start, end)`` window covers ``now``, in plan
    order (an ``end`` of ``None`` never closes)."""
    return tuple(
        fault
        for fault in faults
        if fault.start <= now and (fault.end is None or now < fault.end)
    )
