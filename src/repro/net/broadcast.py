"""Timely-delivery broadcast (Section 3.2, after [15] and [10]).

The service implements the paper's ``broadcast``/``deliver`` pair with
the *timely delivery* property: if a process invokes ``broadcast(m)``
at time ``τ`` and does not leave by ``τ + δ``, then every process that
is in the system at ``τ`` and does not leave by ``τ + δ`` delivers
``m`` by ``τ + δ``.  (Under a non-synchronous delay model, the same
mechanism degrades exactly as the model dictates — that *is* the
experiment.)

Processes that **enter during** ``(τ, τ + δ]`` have no delivery
guarantee.  The paper's Figure 3 hinges on this: the joiner may or may
not see a concurrently broadcast ``WRITE``.  The service therefore takes
an *entrant policy*:

* ``"none"``  — entrants never receive in-flight broadcasts (the bare
  guarantee; the default);
* ``"all"``   — entrants always receive them before the window closes
  (the optimistic drawing of Figure 3(b));
* a float ``p`` — each entrant receives each in-flight broadcast with
  probability ``p``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Union

from ..sim.clock import Time
from ..sim.engine import EventScheduler
from ..sim.errors import ConfigError, NetworkError
from ..sim.membership import Membership
from ..sim.process import SimProcess
from ..sim.rng import RngRegistry
from ..sim.trace import TraceKind, TraceLog
from .delay import DelayModel
from .network import Network

#: Entrant policy type: the two symbolic policies or a probability.
EntrantPolicy = Union[str, float]

_broadcast_counter = itertools.count()


@dataclass(slots=True)
class _InFlightBroadcast:
    """Bookkeeping for one broadcast during its delivery window."""

    broadcast_id: int
    sender: str
    payload: Any
    sent_at: Time
    window_end: Time
    recipients: set[str] = field(default_factory=set)


class BroadcastService:
    """The paper's one-to-many communication primitive."""

    def __init__(
        self,
        engine: EventScheduler,
        membership: Membership,
        network: Network,
        delay_model: DelayModel,
        trace: TraceLog,
        rng: RngRegistry,
        window: Time | None = None,
        entrant_policy: EntrantPolicy = "none",
    ) -> None:
        self.engine = engine
        self.membership = membership
        self.network = network
        self.delay_model = delay_model
        self.trace = trace
        self._rng = rng.stream("net.broadcast")
        self.broadcast_count = 0
        self._window = window
        self._entrant_policy = self._validate_policy(entrant_policy)
        self._in_flight: list[_InFlightBroadcast] = []
        #: Mesoscale absorption hook.  When a
        #: :class:`~repro.runtime.mesoscale.AggregatePopulation` is
        #: installed here, every broadcast is *also* offered to it so
        #: the analytically aggregated cohorts can fold the round into
        #: their closed-form arrival trajectories.  ``None`` (always,
        #: outside mesoscale mode) keeps this path entirely inert.
        self.aggregate: Any = None

    @staticmethod
    def _validate_policy(policy: EntrantPolicy) -> EntrantPolicy:
        if isinstance(policy, str):
            if policy not in ("none", "all"):
                raise ConfigError(
                    f"entrant policy must be 'none', 'all' or a probability, "
                    f"got {policy!r}"
                )
            return policy
        probability = float(policy)
        if not 0.0 <= probability <= 1.0:
            raise ConfigError(f"entrant probability {probability!r} not in [0, 1]")
        return probability

    @property
    def entrant_policy(self) -> EntrantPolicy:
        return self._entrant_policy

    # ------------------------------------------------------------------
    # Broadcasting
    # ------------------------------------------------------------------

    def broadcast(self, sender: str, payload: Any) -> int:
        """Broadcast ``payload`` to every process currently in the system.

        Returns the broadcast id (deliveries share it, for tracing).
        The sender delivers its own broadcast too — the paper's
        primitive sends "to all the processes in the system", and
        several protocol lines rely on self-delivery (e.g. the writer
        ACKing its own ``WRITE``).
        """
        if not self.membership.is_present(sender):
            raise NetworkError(f"departed process {sender!r} cannot broadcast")
        now = self.engine.now
        broadcast_id = next(_broadcast_counter)
        self.broadcast_count += 1
        if self.trace.enabled:
            self.trace.record(
                now,
                TraceKind.BROADCAST,
                sender,
                type=type(payload).__name__,
                broadcast_id=broadcast_id,
            )
        # One membership snapshot serves both the fan-out and (when an
        # entrant policy is active) the in-flight record; without a
        # policy no bookkeeping is materialized at all.
        recipients = self.membership.present_pids()
        # The network draws every recipient's delay itself, from this
        # service's stream, fusing the sampling into its scheduling
        # loop — no per-recipient envelope or Event at all.
        self.network.deliver_fanout(
            sender, recipients, payload, now, broadcast_id, self._rng
        )
        if self.aggregate is not None:
            self.aggregate.absorb_broadcast(sender, payload, now, broadcast_id)
        if self._window is not None and self._entrant_policy != "none":
            self._in_flight.append(
                _InFlightBroadcast(
                    broadcast_id=broadcast_id,
                    sender=sender,
                    payload=payload,
                    sent_at=now,
                    window_end=now + self._window,
                    recipients=set(recipients),
                )
            )
        return broadcast_id

    # ------------------------------------------------------------------
    # Entrants
    # ------------------------------------------------------------------

    def offer_to_entrant(self, process: SimProcess) -> int:
        """Offer in-flight broadcasts to a process that just entered.

        Called by the system when a process enters.  Returns the number
        of broadcasts actually offered (delivered) to it.  Each offer is
        delivered at a time drawn uniformly inside the remaining window,
        preserving the ``τ + δ`` deadline.
        """
        if self._entrant_policy == "none":
            return 0
        now = self.engine.now
        self._expire(now)
        offered = 0
        for flight in self._in_flight:
            if process.pid in flight.recipients:
                continue
            if now >= flight.window_end:
                continue
            if self._entrant_policy != "all":
                if self._rng.random() >= float(self._entrant_policy):
                    continue
            deliver_at = self._rng.uniform(now, flight.window_end)
            if deliver_at <= now:
                deliver_at = flight.window_end
            flight.recipients.add(process.pid)
            self.network.deliver_scheduled(
                flight.sender,
                process.pid,
                flight.payload,
                deliver_at,
                flight.broadcast_id,
            )
            offered += 1
        return offered

    def _expire(self, now: Time) -> None:
        self._in_flight = [f for f in self._in_flight if f.window_end > now]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BroadcastService(broadcasts={self.broadcast_count}, "
            f"policy={self._entrant_policy!r})"
        )
