"""The static baseline: an ABD-style majority register.

Attiya, Bar-Noy and Dolev [3] showed how to implement a register in a
*static* asynchronous message-passing system where a majority of the
``n`` processes never crash: operations contact all replicas and wait
for majority acknowledgements.  The paper cites ABD both as the
foundation its protocols generalize and, implicitly, as the thing that
breaks under churn: ABD's quorums are drawn from a fixed universe, so
once churn has replaced half of the original members, every operation
blocks forever.

Experiment E10 runs exactly that comparison.  This implementation is a
single-writer ABD with read write-back (so it is atomic, not merely
regular, in the static setting):

* ``write(v)``   — send ``WRITE(v, sn)`` to the universe, await a
  majority of ``ACK``;
* ``read()``     — phase 1: query the universe, await a majority of
  ``REPLY``, adopt the highest ``sn``; phase 2 (write-back): push that
  pair back to a majority, then return.

Each "send to the universe" is one ``send_round``; a replica's "send
ACK / REPLY to the sender" is its handler's ``return``, which the
network sends.

Only the original universe members act as replicas.  Processes that
arrive later (spawned by churn) complete a trivial join and may invoke
reads — their quorums are still drawn from the fixed universe, which is
precisely the static protocol's limitation.

Quorum bookkeeping (query replies, write-back acks, write acks, the
per-key ``request`` counters) runs on the shared
:class:`~repro.protocols.common.PhaseTracker` machinery; with a
multi-key :class:`~repro.core.register.RegisterSpace` every operation
addresses one key and the per-key phases multiplex over the node.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from ..core.register import NodeContext, RegisterNode
from ..sim.errors import ConfigError
from ..sim.operations import OperationBody, WaitUntil
from .common import OK, PhaseTracker, make_join_result

#: Key in ``NodeContext.extra`` holding the static replica universe.
UNIVERSE_KEY = "abd_universe"


class AbdWrite(NamedTuple):
    """WRITE(v, sn) from the writer to every replica."""

    value: Any
    sequence: int
    key: Any = None


class AbdAck(NamedTuple):
    """Acknowledgement of a WRITE with the same sequence number."""

    sequence: int
    key: Any = None


class AbdQuery(NamedTuple):
    """Phase-1 read query, tagged with the reader's request number."""

    request: int
    key: Any = None


class AbdQueryReply(NamedTuple):
    """A replica's current ⟨value, sn⟩ for request ``request``."""

    request: int
    value: Any
    sequence: int
    key: Any = None


class AbdWriteBack(NamedTuple):
    """Phase-2 write-back of the value the reader is about to return."""

    request: int
    value: Any
    sequence: int
    key: Any = None


class AbdWriteBackAck(NamedTuple):
    """A replica's acknowledgement of a write-back."""

    request: int
    key: Any = None


class AbdRegisterNode(RegisterNode):
    """One process running single-writer ABD over a fixed universe."""

    protocol_name = "abd"

    __slots__ = ("_queries", "_writebacks", "_writes", "_universe", "_is_replica")

    def __init__(self, pid: str, ctx: NodeContext) -> None:
        super().__init__(pid, ctx)
        # Phase thresholds depend on the replica universe, which the
        # runtime installs only after every seed exists — each round is
        # opened with the majority as it then stands.
        self._queries = PhaseTracker()
        self._writebacks = PhaseTracker()
        self._writes = PhaseTracker()
        # The universe is fixed by definition, so it (and membership of
        # it) is resolved once — but only once it exists.
        self._universe: tuple[str, ...] | None = None
        self._is_replica = False  # until the universe is known to hold us

    # ------------------------------------------------------------------
    # Universe plumbing
    # ------------------------------------------------------------------

    @property
    def universe(self) -> tuple[str, ...]:
        """The fixed replica set (the system's initial members)."""
        universe = self._universe
        if universe is None:
            installed = self.ctx.extra.get(UNIVERSE_KEY)
            if not installed:
                raise ConfigError(
                    "ABD nodes need ctx.extra['abd_universe'] to hold the "
                    "initial membership"
                )
            universe = self._universe = tuple(installed)
            self._is_replica = self.pid in universe
        return universe

    @property
    def majority(self) -> int:
        return len(self.universe) // 2 + 1

    @property
    def is_replica(self) -> bool:
        # Asked by every request until the universe is resolved.
        return self._is_replica or (
            self._universe is None and self.pid in self.universe
        )

    # ------------------------------------------------------------------
    # Operation bodies (``RegisterNode`` owns the entry points)
    # ------------------------------------------------------------------

    def _join_body(self) -> OperationBody:
        """A trivial join: ABD has no entry protocol.

        The newcomer becomes active immediately but holds no replica
        state; it may read via the fixed universe (and will block once
        churn has eaten the quorums — the point of experiment E10).
        """
        self.mark_active()
        return make_join_result(self.space)
        yield  # pragma: no cover — makes the body a generator

    def _read_body(self, key: Any) -> OperationBody:
        phase = self._queries.open(key, self.majority)
        phase.request = request = phase.request + 1
        send_round = self.ctx.network.send_round  # one payload a round
        send_round(self.pid, self.universe, AbdQuery(request, key))
        yield WaitUntil(phase.satisfied, label="abd phase 1")
        value, sequence = phase.best_for(key)  # type: ignore[misc]
        self.space.adopt(key, value, sequence)
        phase.settle()
        # Phase 2: write-back, so a later read cannot see an older value.
        wb_phase = self._writebacks.open(key, self.majority)
        send_round(
            self.pid, self.universe, AbdWriteBack(request, value, sequence, key)
        )
        yield WaitUntil(wb_phase.satisfied, label="abd phase 2")
        wb_phase.settle()
        return value

    def _write_body(self, value: Any, key: Any) -> OperationBody:
        sequence = self.space.bump(key)
        self.space.install(key, value, sequence)
        phase = self._writes.open(key, self.majority)
        self.ctx.network.send_round(
            self.pid, self.universe, AbdWrite(value, sequence, key)
        )
        yield WaitUntil(phase.satisfied, label="abd write acks")
        phase.settle()
        return OK

    # ------------------------------------------------------------------
    # Message handlers: replicas alone serve requests (one slot load; a
    # seed predates its universe, so its first request resolves both);
    # an answer finds its round with one probe under the message's key,
    # none there is the cold path: the default key's, the named ``KeyError``.
    # ------------------------------------------------------------------

    def on_abdwrite(self, sender: str, msg: AbdWrite) -> AbdAck | None:
        if not (self._is_replica or self.is_replica):
            return None
        self.space.adopt(msg.key, msg.value, msg.sequence)
        return AbdAck(msg.sequence, msg.key)

    def on_abdack(self, sender: str, msg: AbdAck) -> None:
        key = msg.key
        phase = self._writes.get(key)
        if phase is None:
            phase = self._writes.get(key := self.space.resolve(key))
        if phase is not None and msg.sequence == self.space._cells[key][1]:
            phase._offers[sender] = ()

    def on_abdquery(self, sender: str, msg: AbdQuery) -> AbdQueryReply | None:
        if not (self._is_replica or self.is_replica):
            return None
        space = self.space
        value, sequence = space._cells.get(msg.key) or space.snapshot(msg.key)
        return AbdQueryReply(msg.request, value, sequence, msg.key)

    def on_abdqueryreply(self, sender: str, msg: AbdQueryReply) -> None:
        key = msg.key
        phase = self._queries.get(key)
        if phase is None:
            phase = self._queries.get(key := self.space.resolve(key))
        if phase is not None and msg.request == phase.request:
            phase._offers[sender] = ((key, msg.value, msg.sequence),)

    def on_abdwriteback(
        self, sender: str, msg: AbdWriteBack
    ) -> AbdWriteBackAck | None:
        if not (self._is_replica or self.is_replica):
            return None
        self.space.adopt(msg.key, msg.value, msg.sequence)
        return AbdWriteBackAck(msg.request, msg.key)

    def on_abdwritebackack(self, sender: str, msg: AbdWriteBackAck) -> None:
        # Tagged with its *query* round: a superseded read's is not counted.
        key = msg.key
        query = self._queries.get(key)
        if query is None:
            query = self._queries.get(key := self.space.resolve(key))
        if query is not None and msg.request == query.request:
            phase = self._writebacks.get(key)
            if phase is not None:
                phase._offers[sender] = ()
