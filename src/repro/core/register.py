"""The register abstraction (Sections 1 and 2.2) and its keyed
generalization, the :class:`RegisterSpace`.

A *regular register* in a dynamic system satisfies (Section 2.2):

* **Liveness** — if a process invokes ``read`` or ``write`` and does
  not leave the system, the operation eventually returns;
* **Safety** — a ``read`` returns the last value written before the
  read invocation, or a value written by a write concurrent with it.

``RegisterNode`` is the interface every protocol implementation
(synchronous, eventually synchronous, naive, ABD) exposes; the system
runtime and the workloads talk only to this interface, and the safety
checker consumes only the operation handles it returns — protocols are
never trusted to self-report correctness.

The paper implements exactly one register; the production
extrapolation is a *store* of many.  Each node therefore holds a
:class:`RegisterSpace` — per-key ``⟨value, sequence⟩`` cells — and every
operation addresses a key.  A register state is its content (the paper
adopts ⟨v, sn⟩ "if newer", and a joiner takes per-key maxima), so each
system keeps one :class:`SpaceTable` that maps a content to its one
space: nodes in one state hold one object, and the REPLY derived from
it.  The single-register system is the ``keys == 1`` special case whose
key is the :data:`SINGLE_KEY` sentinel ``None``: its message payloads,
histories and digests are byte-identical to the pre-RegisterSpace
library, which keeps the trajectory artifacts and the seed corpus
comparable across the refactor.  Safety of a keyed store is per-key
safety: the checkers partition histories by key (see
:meth:`History.sub_history <repro.core.history.History.sub_history>`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import is_
from typing import Any, NoReturn, TYPE_CHECKING
from weakref import ref

from ..sim.clock import Time
from ..sim.engine import EventScheduler
from ..sim.errors import ProcessError
from ..sim.operations import OperationBody, OperationHandle
from ..sim.process import ProcessMode, SimProcess
from ..sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.broadcast import BroadcastService
    from ..net.network import Network


_ACTIVE = ProcessMode.ACTIVE

#: The distinguished "nothing written locally yet" value (the paper's ⊥).
BOTTOM = None

#: The operation kind strings recorded in histories.
OP_JOIN = "join"
OP_READ = "read"
OP_WRITE = "write"

#: One key's local copy: ``(value, sequence)``.
Cell = tuple[Any, int]

#: The cell every key starts from: nothing written, paired with −1 so
#: the first real sequence number (0) passes the adoption guard.
_UNSET: Cell = (BOTTOM, -1)

#: A space's transition memo before its first adoption: matches none.
_NO_STEP: tuple = (None, object(), None, None)

#: The key of the classic single-register system.  ``None`` (rather
#: than a named key) keeps every single-register code path — message
#: payloads, operation records, digests — literally unchanged from the
#: pre-RegisterSpace library.
SINGLE_KEY = None


def key_names(count: int) -> tuple[Any, ...]:
    """The key tuple for a ``count``-key register space.

    ``count == 1`` is the paper's single register and keeps the
    :data:`SINGLE_KEY` sentinel; larger spaces use named keys
    ``k0 … k{count-1}``.
    """
    if count < 1:
        raise ValueError(f"a register space needs at least 1 key, got {count!r}")
    if count == 1:
        return (SINGLE_KEY,)
    return tuple(f"k{i}" for i in range(count))


class RegisterSpace(list):
    """Per-key local copies of the keyed register store: one register
    state, held by every node in that state.

    The space IS its list of cells, one ``(value, sequence)`` tuple per
    key in key order (``_keys``), so a read of both halves is one
    C-level subscript.  It is never changed once built: :meth:`install`,
    :meth:`adopt` and :meth:`adopt_all` return the successor, which the
    node rebinds ``space`` to, and every successor is the one its
    system's :class:`SpaceTable` (``_table``) holds for that content, so
    two spaces of equal content are one object.  The three protocols
    share its adoption guard, the paper's "adopt if newer" rule.

    ``_index`` maps a key to its position: built with the first space of
    a key tuple, shared by its successors, and copied only by an
    ``adopt`` that admits a key.  A quorum handler probes it with its
    message's key as it stands and comes here only on a miss.  ``_next``
    is the space's last adoption (key, value, sequence and a weak
    reference to the successor): the recipients of one WRITE hold one
    prior and make one adoption, so all but the first skip the table.
    ``reply`` is the REPLY a protocol derives from the state, filled on
    first use (sync's inquiry answer) and kept while the state lives.
    """

    __slots__ = (
        "_keys", "_index", "_table", "_next", "reply", "__weakref__"
    )

    @property
    def keys(self) -> tuple[Any, ...]:
        return self._keys

    def resolve(self, key: Any = None) -> Any:
        """Map ``None`` to the default (first) key; validate named keys."""
        if key is None:
            return self._keys[0]
        if key not in self._index:
            raise KeyError(f"unknown register key {key!r}; have {self._keys}")
        return key

    def _position(self, key: Any) -> int:
        """``key``'s cell position (``None``: the default key's, 0)."""
        if key is None:
            return 0
        position = self._index.get(key)
        if position is None:
            self.resolve(key)  # an unknown named key: the KeyError
        return position

    def value(self, key: Any = None) -> Any:
        return self[self._position(key)][0]

    def sequence(self, key: Any = None) -> int:
        return self[self._position(key)][1]

    def snapshot(self, key: Any = None) -> tuple[Any, int]:
        return self[self._position(key)]

    def reply_parts(self) -> tuple[Any, int, tuple[tuple[Any, Any, int], ...] | None]:
        """The default key's ``(value, sequence)`` plus the batched
        ``entries`` payload (``None`` on a single-key space) — the three
        fields of an inquiry reply, in one call."""
        value, sequence = self[0]
        if len(self) == 1:
            return value, sequence, None
        return value, sequence, self.entries()

    def _with(self, position: int, cell: Cell, key: Any = None) -> RegisterSpace:
        """The space that is this one with ``cell`` at ``position`` (past
        the end: ``key``'s, admitted)."""
        keys, index, cells = self._keys, self._index, self[:]
        if position == len(self):
            keys, index = (*keys, key), {**index, key: position}
            cells.append(cell)
        else:
            cells[position] = cell
        return self._table.intern(keys, index, cells)

    def install(self, key: Any, value: Any, sequence: int) -> RegisterSpace:
        """The space with ``key``'s local copy set unconditionally."""
        return self._with(self._position(key), (value, sequence))

    def adopt(self, key: Any, value: Any, sequence: int) -> RegisterSpace:
        """The paper's adoption rule: the space with ``key`` at ⟨value,
        sequence⟩ iff that is strictly newer, else this space.

        Unlike :meth:`resolve`-gated operations, adoption *auto-admits*
        an unknown named key at ⟨⊥, −1⟩ (live resharding grows a shard's
        key set; its nodes get the key by ``MigInstall`` or a
        ``WriteMsg``), so the guard applies uniformly (a refused
        adoption still admits).  ``None`` is the default key.  A repeat
        of the last adoption is answered from ``_next``.
        """
        step = self._next
        if step[1] is value and step[2] == sequence and step[0] == key:
            successor = step[3]()
            if successor is not None:
                return successor
        position = 0 if key is None else self._index.get(key)
        if position is None:  # admitted at ⟨⊥, −1⟩, and guarded as any cell
            position = len(self)
            cell = _UNSET if sequence <= _UNSET[1] else (value, sequence)
        elif sequence <= self[position][1]:
            return self
        else:
            cell = (value, sequence)
        successor = self._with(position, cell, key)
        self._next = (key, value, sequence, ref(successor))
        return successor

    def adopt_all(self, best: dict[Any, Cell]) -> RegisterSpace:
        """:meth:`adopt` of each key of this space that ``best`` maps to a
        ``(value, sequence)`` (a join's per-key maxima), as one successor."""
        cells = [
            cell if offer is None or offer[1] <= cell[1] else offer
            for cell, offer in zip(self, map(best.get, self.keys))
        ]
        if all(map(is_, cells, self)):
            return self
        return self._table.intern(self._keys, self._index, cells)

    def entries(self) -> tuple[tuple[Any, Any, int], ...]:
        """Every ``(key, value, sequence)`` triple, in key order.

        The batched payload joiner replies carry: one reply serves
        every key the joiner needs, keeping join traffic independent
        of the key count.
        """
        return tuple(
            (key, value, sequence)
            for key, (value, sequence) in zip(self._keys, self)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cells = ", ".join(
            f"{key!r}=({value!r}, {sequence})"
            for key, value, sequence in self.entries()
        )
        return f"RegisterSpace({cells})"


class SpaceTable(dict):
    """One system's register states: content → a weak reference to its
    one :class:`RegisterSpace`.

    A content is the key tuple and, per cell, the value's identity and
    its sequence number (identity, not equality: ``1`` and ``1.0`` are
    two writes).  An entry lives exactly as long as its space: the
    reference's callback drops it when the last holder lets the space
    go, so an identity in a live key is the identity of a live value,
    and the table never holds more states than the system's nodes do —
    its bound, with no cap to choose.  A system owns one (every shard
    of a cluster its own), reached as :attr:`NodeContext.spaces`.
    """

    __slots__ = ()

    def space(
        self, keys: tuple[Any, ...] = (SINGLE_KEY,), cell: Cell = _UNSET
    ) -> RegisterSpace:
        """The state holding ``cell`` at every one of ``keys``: a seed
        population's start (⟨v0, 0⟩, footnote 3) or a joiner's (⟨⊥, −1⟩).
        A key tuple that is empty or names a key twice is refused
        (``ValueError`` naming the key)."""
        if not keys:
            raise ValueError("a register space needs at least one key")
        index = {key: position for position, key in enumerate(keys)}
        if len(index) != len(keys):
            duplicate = next(key for key in keys if keys.count(key) > 1)
            raise ValueError(f"register key {duplicate!r} appears twice in {keys}")
        return self.intern(keys, index, [cell] * len(keys))

    def intern(
        self, keys: tuple[Any, ...], index: dict[Any, int], cells: list[Cell]
    ) -> RegisterSpace:
        """The one space of ``keys`` at ``cells``, built on first sight
        (with ``index``, ``keys``' positions)."""
        content = (keys, *chain.from_iterable((id(v), sn) for v, sn in cells))
        held = self.get(content)
        if held is not None and (space := held()) is not None:
            return space
        space = list.__new__(RegisterSpace)
        space += cells
        space._keys, space._index, space._table = keys, index, self
        space._next, space.reply = _NO_STEP, None
        self[content] = ref(space, partial(self.pop, content))
        return space


@dataclass
class NodeContext:
    """Everything a protocol node needs from its environment.

    ``n`` is the (constant, globally known) system size and ``delta``
    the delay bound known to synchronous protocols; asynchronous
    protocols must ignore it — the runtime still passes the value so
    that deliberately *wrong* protocols (e.g. a timer-based protocol
    run under asynchrony, for Theorem 2) can be expressed.
    """

    engine: EventScheduler
    network: "Network"
    broadcast: "BroadcastService"
    trace: TraceLog
    n: int
    delta: Time
    extra: dict[str, Any] = field(default_factory=dict)
    #: The register space's key dimension.  The default single-key
    #: tuple is the paper's one register; multi-key systems pass
    #: :func:`key_names` of their key count.
    keys: tuple[Any, ...] = (SINGLE_KEY,)
    #: The system's register states, one object per content: every
    #: node built here starts on a space of this table.
    spaces: SpaceTable = field(default_factory=SpaceTable)
    #: What the node class derives from ``n``, ``delta`` and ``extra``
    #: (sync's inquiry wait, ES's quorum): checked and resolved once by
    #: :meth:`RegisterNode.bind`, and shared by every node built here.
    derived: dict[str, Any] = field(default_factory=dict)


class RegisterNode(SimProcess, abc.ABC):
    """A process holding one local copy of the shared register.

    Lifecycle contract (Section 2):

    * a node created as a *seed* (``seed`` a space holding the initial
      value on every key, the one every seed is built on) starts active
      — the paper's "initially, n processes compose the system" premise
      (footnote 3);
    * a node created as a *joiner* (``seed`` omitted) starts in
      listening mode on ``ctx.spaces``' ⟨⊥, −1⟩ space of ``ctx.keys``
      and must be driven through :meth:`join` before it may read or
      write.

    ``ctx`` must have been bound to the node class (:meth:`bind`).
    """

    __slots__ = ("ctx", "space", "migration_sink")

    def __init__(
        self, pid: str, ctx: NodeContext, seed: RegisterSpace | None = None
    ) -> None:
        SimProcess.__init__(self, pid, ctx.engine, seed is not None)
        self.ctx = ctx
        #: The node's local copies, one cell per key: its state's one
        #: space, rebound (never changed) by every transition.
        self.space = ctx.spaces.space(ctx.keys) if seed is None else seed
        #: The coordinator currently using this node as its reply agent
        #: (``None`` when no migration is in flight through this node).
        self.migration_sink: Any = None

    @classmethod
    def bind(cls, ctx: NodeContext) -> None:
        """Check and resolve into ``ctx.derived``, once per context and
        before any node is built, what this class reads from ``ctx.extra``."""

    # ------------------------------------------------------------------
    # The three operations
    # ------------------------------------------------------------------

    def join(self) -> OperationHandle:
        """Invoke the join operation (the entry protocol).

        A join is key-less: one entry round installs every key of the
        register space (the inquiry replies carry batched per-key
        entries).
        """
        if self.is_active or self._runners:  # done, or still running
            raise ProcessError(f"{self.pid} invoked join twice")
        return self.run_operation(OP_JOIN, self._join_body())

    def read(self, key: Any = None) -> OperationHandle:
        """Invoke a read of ``key``.  Only legal once the node is
        active; ``None`` addresses the default key.

        A protocol whose read waits (ES, ABD) inherits this entry point
        and defines ``_read_body(key)``, the read of the resolved key as
        an operation generator; one whose read is local overrides
        ``read`` itself and needs no body (sync: Figure 2's read is
        born complete).
        """
        if self._mode is not _ACTIVE:
            self._refuse_inactive(OP_READ)
        key = self.space.resolve(key)
        return self.run_operation(OP_READ, self._read_body(key), key=key)

    def write(self, value: Any, key: Any = None) -> OperationHandle:
        """Invoke a write of ``key``.  Only legal once the node is
        active; ``None`` addresses the default key."""
        if self._mode is not _ACTIVE:
            self._refuse_inactive(OP_WRITE)
        key = self.space.resolve(key)
        return self.run_operation(
            OP_WRITE, self._write_body(value, key), argument=value, key=key
        )

    def _refuse_inactive(self, kind: str) -> NoReturn:
        raise ProcessError(
            f"{self.pid} invoked {kind} before its join returned; the "
            f"model only allows reads/writes from active processes"
        )

    @abc.abstractmethod
    def _join_body(self) -> OperationBody:
        """The protocol's join, as an operation generator."""

    @abc.abstractmethod
    def _write_body(self, value: Any, key: Any) -> OperationBody:
        """The protocol's write of ``value`` to (resolved) ``key``."""

    # ------------------------------------------------------------------
    # Key-migration service (repro.cluster.migration)
    # ------------------------------------------------------------------
    #
    # Every protocol's nodes can serve a live-resharding handoff: the
    # coordinator polls source nodes for their freshest copy
    # (``MigFetch``) and installs the winner across the destination
    # shard (``MigInstall``); a node's answer is its handler's return
    # value, which the network sends.  Replies route back through the *agent*
    # node the coordinator sends from — the coordinator itself is a
    # plain object outside the membership — via ``migration_sink``.
    # The payload classes are imported lazily: ``repro.protocols``
    # imports this module at package-init time, so a top-level import
    # would cycle.

    def on_migfetch(self, sender: str, msg: Any) -> Any:
        from ..protocols.common import MigFetchReply

        try:
            value, sequence = self.space.snapshot(msg.key)
        except KeyError:
            value, sequence = BOTTOM, -1
        return MigFetchReply(msg.key, msg.migration_id, value, sequence)

    def on_migfetchreply(self, sender: str, msg: Any) -> None:
        sink = self.migration_sink
        if sink is not None:
            sink.on_fetch_reply(sender, msg)

    def on_miginstall(self, sender: str, msg: Any) -> Any:
        from ..protocols.common import MigAck

        # Adoption auto-admits the key and keeps newer local state; the
        # ack is unconditional, so re-installs (retry rounds) are
        # idempotent.
        self.space = self.space.adopt(msg.key, msg.value, msg.sequence)
        return MigAck(msg.migration_id)

    def on_migack(self, sender: str, msg: Any) -> None:
        sink = self.migration_sink
        if sink is not None:
            sink.on_install_ack(sender, msg)

    # ------------------------------------------------------------------
    # Uniform introspection used by experiments and tests
    # ------------------------------------------------------------------

    @property
    def register_value(self) -> Any:
        """The node's current local copy of the default key."""
        return self.space.value()

    @property
    def sequence_number(self) -> int:
        """The sequence number paired with the default key's copy."""
        return self.space.sequence()
