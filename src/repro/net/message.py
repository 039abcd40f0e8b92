"""Message envelopes.

A :class:`Message` wraps a protocol payload with addressing and timing
metadata.  Payloads themselves are small frozen dataclasses defined by
each protocol (e.g. ``Inquiry``, ``Reply``, ``WriteMsg``) — the network
never inspects them beyond their type name, which it uses for tracing.
No delivery carries one: :meth:`~repro.net.network.Network.send` builds
it on request, as the description of what was scheduled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from ..sim.clock import Time

_message_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class Message:
    """One point-to-point message or one broadcast delivery instance.

    ``broadcast_id`` is ``None`` for point-to-point messages and the
    originating broadcast's identifier otherwise (all deliveries of one
    broadcast share it, which lets tests assert on fan-out).
    """

    sender: str
    dest: str
    payload: Any
    sent_at: Time
    deliver_at: Time
    broadcast_id: int | None = None
    msg_id: int = field(default_factory=lambda: next(_message_counter))

    @property
    def delay(self) -> Time:
        """The network latency this message experienced."""
        return self.deliver_at - self.sent_at

    @property
    def payload_type(self) -> str:
        """The payload's class name, used in traces and statistics."""
        return type(self.payload).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f", bcast={self.broadcast_id}" if self.broadcast_id is not None else ""
        return (
            f"Message({self.payload_type} {self.sender}->{self.dest}, "
            f"sent={self.sent_at!r}, arrives={self.deliver_at!r}{tag})"
        )
