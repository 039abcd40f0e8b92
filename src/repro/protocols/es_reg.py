"""The eventually-synchronous protocol — Figures 4, 5 and 6.

With no usable delay bound, the protocol replaces timers with
acknowledgements: every operation blocks until a **majority** of the
(known, constant) system size ``n`` has answered.  Correctness rests on
the Section 5.2 assumptions:

* ``∀τ: |A(τ)| ≥ n/2 + 1`` — a majority of the population is active at
  every instant (the dynamic analogue of "a majority of processes do
  not crash");
* a churn bound coupling ``c``, ``δ`` and ``n`` (``c ≤ 1/(3δn)``);
* a process that joins stays for at least ``3δ`` time units;
* writes are never concurrent (single writer at a time).

The ``DL_PREV`` mechanism is the protocol's subtle part: a process that
is *not yet active* (or is mid-read) cannot usefully answer an
``INQUIRY``, but it must not leave the inquirer hanging either — both
could be joiners waiting on each other.  It therefore immediately sends
``DL_PREV(i, r)`` — "I owe you nothing now, but *you* will owe me a
reply for my pending request ``r`` once you are able" — and records the
inquirer in ``reply_to`` so its own eventual activation answers the
inquiry.  Every process finishing its join answers both its ``reply_to``
and its ``dl_prev`` sets (Figure 4, lines 08-10), which is exactly what
makes joins unblock each other across GST (Lemma 5).

Quorum bookkeeping — reply dicts, ack sets, the ``read_sn`` request
counters, the max-by-``(sn, sender)`` adoption — lives on the shared
:class:`~repro.protocols.common.QuorumPhase` /
:class:`~repro.protocols.common.PhaseTracker` machinery.  The join is
*batched over keys*: one ``INQUIRY`` round returns every key of a
multi-key :class:`~repro.core.register.RegisterSpace` (replies carry
per-key entries), while reads and writes address one key each through
per-key phases multiplexed over the same node.

Where a figure's handler ends in "send … to p_j" — its one answer to
the sender of the message being handled (Figure 4 line 21's ACK,
Figure 5 line 09's REPLY, Figure 6 line 08's ACK) — the handler
*returns* that message and the network sends it; ``on_esinquiry`` may
owe p_j several (lines 13-14, 16) and sends them itself.

Transcription note: the source report's pseudo-code for lines 14/16 is
typographically garbled in the archived PDF (the argument of
``DL_PREV``).  We transcribe it as *the sender's own pending request
number*, which is the only reading consistent with the proof of
Lemma 5 (the REPLY triggered by a ``DL_PREV`` must pass the receiver's
``r_sn = read_sn_i`` guard at line 19).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from ..core.register import NodeContext, RegisterNode, RegisterSpace
from ..sim.errors import ProcessError
from ..sim.operations import OperationBody, WaitUntil
from ..sim.process import ProcessMode
from .common import OK, PhaseTracker, QuorumPhase, make_join_result, new_reply


# ----------------------------------------------------------------------
# Messages (Figures 4, 5 and 6)
# ----------------------------------------------------------------------


class EsInquiry(NamedTuple):
    """INQUIRY(i, r_sn): a joiner asks for the register space (r_sn is 0)."""

    sender: str
    read_sn: int


class EsRead(NamedTuple):
    """READ(i, r_sn): a reader asks for key ``key`` of the register."""

    sender: str
    read_sn: int
    key: Any = None


class EsReply(NamedTuple):
    """REPLY(i, ⟨register, sn⟩, r_sn): answer to request ``r_sn``.

    ``entries`` is ``None`` on the single register; a multi-key join
    reply batches every key's ``(key, value, sequence)`` triple.
    """

    sender: str
    value: Any
    sequence: int
    read_sn: int
    key: Any = None
    entries: tuple[tuple[Any, Any, int], ...] | None = None


class EsWrite(NamedTuple):
    """WRITE(i, ⟨v, sn⟩): the writer disseminates a new value for ``key``."""

    sender: str
    value: Any
    sequence: int
    key: Any = None


class EsAck(NamedTuple):
    """ACK(i, sn): acknowledges value ``sn`` of ``key`` back to its writer."""

    sender: str
    sequence: int
    key: Any = None


class EsDlPrev(NamedTuple):
    """DL_PREV(i, r_sn): "reply to my pending request ``r_sn`` (for key
    ``key``; ``None`` = my batched join inquiry) when you become able
    to" — sent by joining or reading processes."""

    sender: str
    read_sn: int
    key: Any = None


class EventuallySyncRegisterNode(RegisterNode):
    """One process running the Figures 4–6 protocol."""

    protocol_name = "es"

    __slots__ = (
        "_join_phase", "_reads", "_acks", "_reply_to", "_dl_prev",
    )

    @classmethod
    def bind(cls, ctx: NodeContext) -> None:
        # The paper's quorum is the majority ⌊n/2⌋ + 1.  Ablation A6
        # overrides it (ctx.extra["quorum_size"]) to measure why nothing
        # smaller is sound: sub-majority quorums need not intersect.  A
        # bool or a fraction is refused, not rounded into a quorum.
        override = ctx.extra.get("quorum_size")
        if override is None:
            quorum = ctx.n // 2 + 1
        elif (
            override.__class__ is not bool
            and isinstance(override, (int, float))
            and override % 1 == 0
            and 1 <= override <= ctx.n
        ):
            quorum = int(override)
        else:
            raise ProcessError(
                f"quorum_size {override!r} must be a whole number in [1, n={ctx.n}]"
            )
        ctx.derived["quorum"] = quorum

    def __init__(
        self, pid: str, ctx: NodeContext, seed: RegisterSpace | None = None
    ) -> None:
        RegisterNode.__init__(self, pid, ctx, seed)
        # Figure 4, lines 01-02: the join's initializations happen at
        # process creation (join starts the instant the process enters).
        # Shared quorum machinery: one batched join phase, per-key read
        # phases (owning the read_sn request counters) and per-key
        # write-ack phases, all multiplexed over this one process; they,
        # and the two pending sets, are built on first use.
        self._join_phase = QuorumPhase(ctx.derived["quorum"])
        self._reads = PhaseTracker()
        self._acks = PhaseTracker()
        self._reply_to: set[tuple[str, int, Any]] | None = None
        self._dl_prev: set[tuple[str, int, Any]] | None = None

    # ------------------------------------------------------------------
    # Operation bodies (``RegisterNode`` owns the entry points)
    # ------------------------------------------------------------------

    def _join_body(self) -> OperationBody:
        """Figure 4: the join operation."""
        # lines 01-02 were executed at construction time
        self._join_phase.open()
        self.ctx.broadcast.broadcast(
            self.pid, EsInquiry(self.pid, 0)  # line 03 (r_sn = 0)
        )
        yield WaitUntil(self._join_phase.satisfied, label="join replies")  # line 04
        # lines 05-06: per key, adopt the greatest-sequence reply
        self.space = self.space.adopt_all(self._join_phase.best_per_key())
        self._join_phase.settle()
        self.mark_active()  # line 07
        for dest, r_sn, key in sorted(  # lines 08-10
            set().union(self._reply_to or (), self._dl_prev or ()),
            key=_pending_order,
        ):
            if dest != self.pid:
                self._send_reply(dest, r_sn, key)
        return make_join_result(self.space)  # line 11

    def _read_body(self, key: Any) -> OperationBody:
        """Figure 5: the read operation."""
        phase = self._reads.open(key, self.ctx.derived["quorum"])  # line 02 ("reading")
        phase.request += 1  # line 01
        self.ctx.broadcast.broadcast(
            self.pid, EsRead(self.pid, phase.request, key)  # line 03
        )
        yield WaitUntil(phase.satisfied, label="read replies")  # line 04
        best = phase.best_for(key)  # lines 05-06
        if best is not None:
            self.space = self.space.adopt(key, best[0], best[1])
        phase.settle()  # line 07
        return self.space.value(key)

    def _write_body(self, value: Any, key: Any) -> OperationBody:
        """Figure 6: the write operation (single writer per key)."""
        yield from self._read_body(key)  # line 01: refresh the sequence number
        sequence = self.space.sequence(key) + 1  # line 02: sn := sn + 1
        self.space = self.space.install(key, value, sequence)
        ack_phase = self._acks.open(key, self.ctx.derived["quorum"])  # line 03
        self.ctx.broadcast.broadcast(
            self.pid, EsWrite(self.pid, value, sequence, key)  # line 04
        )
        yield WaitUntil(ack_phase.satisfied, label="write acks")  # line 05
        ack_phase.settle()
        return OK

    def _reply(self, r_sn: int, key: Any) -> EsReply:
        """REPLY(i, ⟨register, sn⟩, r_sn) for request ``r_sn`` on ``key`` —
        resolved where the request began: the cell is one probe away."""
        space = self.space
        entries = None
        if key is None and len(space._keys) != 1:
            # A batched (join-style) request: one reply carries every key.
            value, sequence, entries = space.reply_parts()
        else:
            i = 0 if key is None else space._index.get(key)  # None: the default key
            value, sequence = space.snapshot(key) if i is None else space[i]
        return new_reply(EsReply, (self.pid, value, sequence, r_sn, key, entries))

    def _send_reply(self, dest: str, r_sn: int, key: Any) -> None:
        self.ctx.network.send_payload(self.pid, dest, self._reply(r_sn, key))

    def _send_dl_prev(self, dest: str, key: Any) -> None:
        """Promise ``dest`` a reply for *our* pending request on ``key``
        (``None`` = our batched join inquiry)."""
        pending = self._reads.get(key) or self._join_phase  # request 0
        self.ctx.network.send_payload(
            self.pid, dest, new_reply(EsDlPrev, (self.pid, pending.request, key))
        )

    def depart(self) -> None:
        """Leave silently, releasing every round and pending set a
        silent process can never use again (its register ``space``
        stays readable; the join phase object stays, empty)."""
        super().depart()
        self._reads.clear()
        self._acks.clear()
        join = self._join_phase
        join._offers.clear()
        join._lead = None
        self._reply_to = self._dl_prev = None

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------

    def on_esinquiry(self, sender: str, msg: EsInquiry) -> None:
        """Figure 4, lines 12-17."""
        if msg.sender == self.pid:
            return  # own broadcast echo
        if self._mode is ProcessMode.ACTIVE:
            self._send_reply(msg.sender, msg.read_sn, None)  # line 13
            for key in self._reads.reading_keys():
                self._send_dl_prev(msg.sender, key)  # line 14
        else:
            self._park((msg.sender, msg.read_sn, None))  # line 15
            self._send_dl_prev(msg.sender, None)  # line 16

    def _park(self, pending: tuple[str, int, Any]) -> None:
        """Lines 15 / 10: ``reply_to := reply_to ∪ {(j, r_sn)}``."""
        if self._reply_to is None:
            self._reply_to = set()
        self._reply_to.add(pending)

    def on_esreply(self, sender: str, msg: EsReply) -> EsAck | None:
        """Figure 4, lines 18-21.

        Line 20 records the replier, ``()`` as an ack is, and folds a
        single-key reply's ⟨v, sn⟩ into the round's running max by
        ``(sequence, sender)`` (lines 05-06 as the replies land); a
        batched reply's ``entries`` is stored whole.  A settled round
        records nothing, but line 21 still answers.
        """
        key = msg.key
        if key is None and len(self.space._keys) != 1:
            # A batched reply answers our join's inquiry (request 0).
            phase, entries = self._join_phase, msg.entries or ()
        else:
            # Reads number from 1, and a key never read has no phase:
            # request 0 is always the join's inquiry.
            phase, entries = self._reads.get(key) or self._join_phase, None
        if msg.read_sn != phase.request:  # line 19
            return None
        if phase.active:  # line 20
            replier = msg.sender
            if entries is not None:
                phase._offers[replier] = entries
            else:
                phase._offers[replier] = ()
                sequence, lead = msg.sequence, phase._lead
                if (
                    lead is None
                    or sequence > lead[0]
                    or (sequence == lead[0] and replier > lead[1])
                ):
                    phase._lead = (sequence, replier, msg.value, key)
        return new_reply(EsAck, (self.pid, msg.sequence, key))  # line 21

    def on_esdlprev(self, sender: str, msg: EsDlPrev) -> None:
        """Figure 4, line 22."""
        if self._dl_prev is None:
            self._dl_prev = set()
        self._dl_prev.add((msg.sender, msg.read_sn, msg.key))

    def on_esread(self, sender: str, msg: EsRead) -> EsReply | None:
        """Figure 5, lines 08-11."""
        if msg.sender == self.pid:
            return None  # own broadcast echo
        if self._mode is ProcessMode.ACTIVE:
            return self._reply(msg.read_sn, msg.key)  # line 09
        self._park((msg.sender, msg.read_sn, msg.key))  # line 10
        return None

    def on_eswrite(self, sender: str, msg: EsWrite) -> EsAck:
        """Figure 6, lines 06-08."""
        self.space = self.space.adopt(msg.key, msg.value, msg.sequence)  # line 07
        return new_reply(EsAck, (self.pid, msg.sequence, msg.key))  # line 08

    def on_esack(self, sender: str, msg: EsAck) -> None:
        """Figure 6, lines 09-10 (no write open on the key: no phase;
        a settled write records nothing)."""
        key, space = msg.key, self.space
        i = space._index.get(key)
        if i is None:  # a batched reply's ack: the default key
            key, i = space.resolve(key), 0
        phase = self._acks.get(key)
        if phase is not None and phase.active and msg.sequence == space[i][1]:
            phase._offers[msg.sender] = ()


def _pending_order(pending: tuple[str, int, Any]) -> tuple[str, int, bool, str]:
    """Deterministic order for the lines 08-10 answering loop.

    Sorts by ``(dest, r_sn)`` exactly as the single-register protocol
    always did (keys are all ``None`` there), with the key's string
    rendering as a tiebreaker so mixed ``None``/named keys compare.
    """
    dest, r_sn, key = pending
    return (dest, r_sn, key is not None, str(key))
