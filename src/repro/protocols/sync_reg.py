"""The synchronous protocol — Figures 1 and 2 of the paper.

Design principle (Section 3.3): *fast reads*.  A read is purely local —
no wait statement, no messages.  The protocol is correct in a
synchronous dynamic system whenever the churn rate satisfies
``c < 1/(3δ)``.

Line-by-line correspondence
---------------------------

``join()`` (Figure 1)::

    (01) register := ⊥; sn := −1; active := false; replies := ∅; reply_to := ∅
    (02) wait(δ)
    (03) if register = ⊥ then
    (04)     replies := ∅
    (05)     broadcast INQUIRY(i)
    (06)     wait(2δ)
    (07)     let ⟨id, val, sn⟩ ∈ replies with maximal sn     ← folded at 17
    (08)     if sn > sn_i then adopt ⟨val, sn⟩
    (09) end if
    (10) active := true                                 ← replies released
    (11) for each j ∈ reply_to: send REPLY(i, ⟨register, sn⟩) to p_j
                                                        ← reply_to released
    (12) return ok

    (13) when INQUIRY(j) is delivered:
    (14)     if active then send REPLY(i, ⟨register, sn⟩) to p_j
    (15)     else reply_to := reply_to ∪ {j}
    (17) when REPLY(j, ⟨value, sn⟩) is received: replies ∪= {⟨j, value, sn⟩}
                                                        ← 1-key: the max only

A "send … to p_j" that answers the message being handled (line 14) is
the handler's ``return``: the network sends it to the delivery's
sender.  Line 11's flush is one ``send_round``.

Lines 07–08 are folded as the replies land: line 17 keeps only the
running max by ``(sequence, sender)`` of the single-key replies (a
batched multi-key reply is stored, as the replier's shared ``entries``
tuple), so a joiner holds O(1) of its n replies, and line 07 merges
that max with the stored batches.  Lines 10–11 release what the join
consumed: the join phase at activation, ``reply_to`` after the flush
(an active node never parks again).  A REPLY that lands later is still
recorded, in a fresh (closed) phase.

``read()`` / ``write(v)`` (Figure 2)::

    read:  return register                        (purely local, fast)
    write: sn += 1; register := v;
           broadcast WRITE(v, sn); wait(δ); return ok
    when WRITE(val, sn) delivered: if sn > sn_i then adopt

The only liberty taken: the joiner's sequence number starts at −1
(paired with ⊥) so that the very first value, whose sequence number is
0, passes the ``sn > sn_i`` adoption guards; the paper leaves the ⊥
pairing implicit.

Footnote 4's optimization is supported: when the context carries a
point-to-point bound ``δ'`` (``ctx.extra["p2p_delta"]``), the inquiry
wait at line 06 shrinks from ``2δ`` to ``δ + δ'`` — the broadcast needs
``δ`` to reach every replier, but their one-to-one responses only need
``δ'``.  Ablation A3 measures the gain.

Reply collection and the line 07-08 adoption run on the shared
:class:`~repro.protocols.common.QuorumPhase` (timer-gated here: the
phase closes on the line 06 wait, not on a count).  With a multi-key
:class:`~repro.core.register.RegisterSpace` the *same single* inquiry
round serves every key: a ``REPLY`` carries batched per-key entries,
so join traffic is independent of the key count.

:class:`NaiveSyncRegisterNode` is the same protocol with line 02
removed — the broken variant of Figure 3(a) used by experiment E2.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, NamedTuple

from ..core.register import (
    BOTTOM, OP_READ, Cell, NodeContext, RegisterNode, RegisterSpace,
)
from ..sim.errors import ProcessError
from ..sim.operations import OperationBody, OperationHandle, OperationState, Wait
from ..sim.process import ProcessMode
from .common import OK, QuorumPhase, make_join_result, new_reply


# ----------------------------------------------------------------------
# Messages (Figures 1 and 2)
# ----------------------------------------------------------------------


class Inquiry(NamedTuple):
    """INQUIRY(i): a joiner asks the system for the current value(s)."""

    sender: str


class Reply(NamedTuple):
    """REPLY(i, ⟨register, sn⟩): an active process answers an inquiry.

    ``i``, the replier, is the delivery's sender — the ``sender`` every
    handler receives — so the payload does not repeat it, and every
    single-key node holding the same ⟨value, sn⟩ answers with one
    shared payload (see :func:`_reply_of`).  ``entries`` is ``None`` on
    a single-register system (the classic payload); a multi-key system
    batches every key's ``(key, value, sequence)`` triple into the one
    reply.
    """

    value: Any
    sequence: int
    entries: tuple[tuple[Any, Any, int], ...] | None = None


class WriteMsg(NamedTuple):
    """WRITE(val, sn): the writer disseminates a new value for ``key``."""

    value: Any
    sequence: int
    key: Any = None


_ACTIVE = ProcessMode.ACTIVE
_DONE = OperationState.DONE

#: The last single-key REPLY built.
_last_reply = Reply(BOTTOM, -1)


def _reply_of(space: RegisterSpace) -> Reply:
    """The REPLY ``space`` answers with.  A single-key space holding the
    last single-key REPLY's ⟨value, sn⟩ — the same value object, the
    same sn — answers with that very payload: the seeds share one
    initial cell and a write's adopters one adopted cell
    (``RegisterSpace.adopt``), so a population answers a join's n
    inquiries with a handful of payloads, not one per replier."""
    global _last_reply
    if len(space) != 1:
        return new_reply(Reply, space.reply_parts())
    value, sequence = space[0]
    reply = _last_reply
    if reply[0] is not value or reply[1] != sequence:
        reply = _last_reply = new_reply(Reply, (value, sequence, None))
    return reply


class SynchronousRegisterNode(RegisterNode):
    """One process running the Figures 1–2 protocol.

    ``join_wait`` keeps the Figure 1 line 02 ``wait(δ)``; the naive
    subclass disables it to reproduce the Figure 3(a) violation.
    """

    protocol_name = "sync"
    join_wait = True

    __slots__ = (
        "_join_phase", "_reply_to", "_reply_cache", "_reply_version",
    )

    @classmethod
    def bind(cls, ctx: NodeContext) -> None:
        # Footnote 4: with a known one-to-one bound δ' the inquiry wait
        # is δ + δ' instead of 2δ.  A bool or a non-real is refused, not
        # read as a number.
        p2p_delta = ctx.extra.get("p2p_delta")
        if p2p_delta is None:
            wait = 2.0 * ctx.delta
        elif (
            p2p_delta.__class__ is not bool
            and isinstance(p2p_delta, Real)
            and 0 < p2p_delta <= ctx.delta
        ):
            wait = ctx.delta + float(p2p_delta)
        else:
            raise ProcessError(
                f"p2p_delta {p2p_delta!r} must lie in (0, δ={ctx.delta!r}]"
            )
        ctx.derived["inquiry_wait"] = wait

    def __init__(self, pid: str, ctx: NodeContext, seed: Cell | None = None) -> None:
        RegisterNode.__init__(self, pid, ctx, seed)
        # Figure 1, line 01 — the join's initializations happen at
        # process creation: in the model a process starts its join the
        # instant it enters the system.  The register cells live in
        # ``self.space`` (⊥ / −1 per key); reply collection lives in a
        # timer-gated quorum phase, and both it and ``reply_to`` exist
        # from first use: the phase from the inquiry that opens it (or
        # a stray reply), the set from the first inquiry parked while
        # listening — a seed, which does neither, owns neither.  Both
        # are released once the join has consumed them (lines 10-11).
        self._join_phase: QuorumPhase | None = None
        self._reply_to: set[str] | None = None
        # Reply payload cache, keyed on the space's version counter:
        # under churn a node answers thousands of inquiries from a
        # space that never changed, and the payload is immutable and
        # therefore shareable across every one of those sends.
        self._reply_cache: Reply | None = None
        self._reply_version = -1

    # ------------------------------------------------------------------
    # Operations: the join and write bodies (``RegisterNode`` owns their
    # entry points) and the read, its own entry point
    # ------------------------------------------------------------------

    def _join_body(self) -> OperationBody:
        """Figure 1: the join operation."""
        if self.join_wait:
            yield Wait(self.ctx.delta)  # line 02
        if self._needs_inquiry():  # line 03
            self._phase().open()  # line 04
            self.ctx.broadcast.broadcast(self.pid, Inquiry(self.pid))  # line 05
            # line 06: 2δ, or δ + δ' per footnote 4
            yield Wait(self.ctx.derived["inquiry_wait"])
            self._adopt_best_replies()  # lines 07-08
        self.mark_active()  # line 10
        self._join_phase = None  # consumed
        if self._reply_to:  # line 11
            self._answer_pending_inquiries()
            self._reply_to = None  # an active node never parks again
        return make_join_result(self.space)  # line 12

    def _phase(self) -> QuorumPhase:
        """The join phase, created (closed, empty) on first use."""
        phase = self._join_phase
        if phase is None:
            phase = self._join_phase = QuorumPhase()
        return phase

    def _needs_inquiry(self) -> bool:
        """Line 03: some key still holds ⊥ (nothing adopted in transit)."""
        return any(value is BOTTOM for value, _ in self.space)

    def read(self, key: Any = None) -> OperationHandle:
        """Figure 2's ``read()``: ``return(register_i)``.

        Local and zero-time, so the read is born complete, in this one
        frame: the mode test (an inactive node is refused as every
        operation is), the key resolved (``None`` is the default key's
        position 0; an unknown named key is ``resolve``'s ``KeyError``),
        the handle built at the engine's clock and the cell's value
        stored as its result.  The response time is the invocation's
        own float object, so a history row prints the instant once (the
        digest's ``response is invoke`` test).  No generator, runner or
        callback is built: the handle is what ``run_operation`` makes of
        a body that returns before its first effect, the op id drawn at
        the same point.
        """
        if self._mode is not _ACTIVE:
            self._refuse_inactive(OP_READ)
        space = self.space
        if key is None:
            position = 0
            key = space._keys[0]
        else:
            position = space._index.get(key)
            if position is None:
                space.resolve(key)  # an unknown named key: the KeyError
        now = self.engine._now
        handle = OperationHandle(OP_READ, self.pid, now, None, key)
        handle._result = space[position][0]
        handle.response_time = now
        handle._state = _DONE
        return handle

    def _write_body(self, value: Any, key: Any) -> OperationBody:
        """Figure 2: the write — broadcast then wait δ."""
        sequence = self.space.bump(key)  # line 01
        self.space.install(key, value, sequence)
        self.ctx.broadcast.broadcast(self.pid, WriteMsg(value, sequence, key))
        yield Wait(self.ctx.delta)  # line 02
        return OK

    def _adopt_best_replies(self) -> None:
        """Lines 07-08, per key: adopt the greatest-sequence reply."""
        best = self._join_phase.best_per_key()
        for key in self.space.keys:
            if key in best:
                self.space.adopt(key, *best[key])

    def _answer_pending_inquiries(self) -> None:
        """Line 11: one reply payload (the first this node builds — it
        has only just become active), sent to every inquirer parked
        while listening, in sorted order."""
        self.ctx.network.send_round(
            self.pid, sorted(self._reply_to), self._fresh_reply()
        )

    def _fresh_reply(self) -> Reply:
        """REPLY(i, ⟨register, sn⟩), cached against the space's version
        (see ``__init__``)."""
        space = self.space
        reply = self._reply_cache = _reply_of(space)
        self._reply_version = space.version
        return reply

    def depart(self) -> None:
        """Leave silently, releasing what a silent process can never use
        again: its join phase, its parked inquirers and its cached
        REPLY (its register ``space`` stays readable)."""
        super().depart()
        self._join_phase = self._reply_to = self._reply_cache = None

    # ------------------------------------------------------------------
    # Message handlers (Figures 1 and 2) — the one body per payload
    # type: the network's fire sites dispatch here inline, its checked
    # path (tracing, delivery-gating plans) through ``deliver_payload``.
    # ------------------------------------------------------------------

    def on_inquiry(self, sender: str, msg: Inquiry) -> Reply | None:
        """Lines 13-16 of Figure 1."""
        inquirer = msg.sender
        if inquirer == self.pid:
            return None  # own broadcast echo: a process does not answer itself
        if self._mode is _ACTIVE:  # line 14
            reply = self._reply_cache
            if reply is None or self._reply_version != self.space.version:
                reply = self._fresh_reply()
            return reply
        self._park(inquirer)  # line 15
        return None

    def _park(self, inquirer: str) -> None:
        """Line 15: ``reply_to := reply_to ∪ {j}``."""
        if self._reply_to is None:
            self._reply_to = set()
        self._reply_to.add(inquirer)

    def on_reply(self, sender: str, msg: Reply) -> None:
        """Line 17 of Figure 1, with line 07's max folded in.

        A single-key reply replaces the phase's lead iff it is greater
        by ``(sequence, sender)``, and nothing of it is kept otherwise;
        a multi-key reply's ``entries`` is already a tuple, so storing
        it directly is what ``offer()`` would store.
        """
        value, sequence, entries = msg
        phase = self._join_phase
        if phase is None:  # a reply to a node that never inquired, or late
            phase = self._phase()
        if entries is not None:
            phase._offers[sender] = entries
            return
        lead = phase._lead
        if (
            lead is None
            or sequence > lead[0]
            or (sequence == lead[0] and sender > lead[1])
        ):
            phase._lead = (sequence, sender, value, self.space._keys[0])

    def on_writemsg(self, sender: str, msg: WriteMsg) -> None:
        """Lines 03-04 of Figure 2."""
        self.space.adopt(msg.key, msg.value, msg.sequence)


class NaiveSyncRegisterNode(SynchronousRegisterNode):
    """The deliberately broken variant: Figure 1 without line 02.

    Used by experiment E2 to replay Figure 3(a): a joiner that inquires
    immediately can install a value older than the last completed write
    and later serve it to reads, violating regularity.
    """

    protocol_name = "naive"
    join_wait = False
    __slots__ = ()
