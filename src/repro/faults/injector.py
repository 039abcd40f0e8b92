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

Determinism: the injector draws randomness from a single dedicated
stream (``faults.injector``) and only when a loss fault actually
matches a message, so an installed-but-idle plan consumes no entropy
and a fixed seed replays the exact same fault schedule.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from ..sim.clock import Time
from .plan import FaultPlan

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
        if payload_type is None:
            payload_type = type(payload).__name__
        plan = self.plan
        for spike in plan.spikes:
            if spike.matches(sender, dest, payload_type, now):
                deliver_at = now + spike.apply(deliver_at - now)
                self.spiked_count += 1
        for partition in plan.partitions:
            if partition.severs(sender, dest, now):
                if partition.mode == "drop":
                    self.partition_dropped_count += 1
                    return deliver_at, REASON_PARTITION
                if partition.end > deliver_at:
                    deliver_at = partition.end
                    self.deferred_count += 1
        for loss in plan.losses:
            if loss.matches(sender, dest, payload_type, now):
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
