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
:class:`RegisterSpace` — per-key ``⟨value, sequence⟩`` cells, shared by
the nodes in that state — and every operation addresses a key.  The
single-register system is the ``keys == 1`` special case whose key is
the :data:`SINGLE_KEY` sentinel ``None``: its message payloads,
histories and digests are byte-identical to the pre-RegisterSpace
library, which keeps the trajectory artifacts and the seed corpus
comparable across the refactor.  Safety of a keyed store is per-key safety: the checkers
partition histories by key (see :meth:`History.sub_history
<repro.core.history.History.sub_history>`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cache
from operator import is_
from typing import Any, NoReturn, TYPE_CHECKING

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


@cache
def _index_of(keys: tuple[Any, ...]) -> dict[Any, int]:
    """``keys``' ``key → position`` index, built once per key tuple.
    Read-only: an ``adopt`` that admits a key copies it first."""
    if not keys:
        raise ValueError("a register space needs at least one key")
    index = {key: position for position, key in enumerate(keys)}
    if len(index) != len(keys):
        duplicate = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"register key {duplicate!r} appears twice in {keys}")
    return index


#: The last adoption, ``(prior, key, value, sequence, cell, successor)``:
#: the recipients of one WRITE hold one prior space and make one adoption,
#: so each gets this successor.  An install leaves its cell here under no
#: prior: a write's adopters share the writer's cell (and space, if single-key).
_last: tuple = (None, None, None, None, None, None)

#: The last join fold's successor (:meth:`RegisterSpace.adopt_all`).
_joined: RegisterSpace | None = None


def _alike(space: RegisterSpace | None, keys: tuple, cells: list) -> bool:
    """Whether ``space`` holds ``keys`` at ``cells``: cell for cell, the
    same value object and sequence number."""
    return space is not None and space._keys == keys and all(
        a is b or (a[0] is b[0] and a[1] == b[1]) for a, b in zip(space, cells)
    )


class RegisterSpace(list):
    """Per-key local copies of the keyed register store: an immutable
    value that every node in the same register state shares.

    The space IS its list of cells, one ``(value, sequence)`` tuple per
    key in key order (``_keys``), so a read of both halves is one
    C-level subscript.  :meth:`install`, :meth:`adopt` and
    :meth:`adopt_all` return the successor, which the node rebinds
    ``space`` to.  The seeds all start on ⟨v0, 0⟩ (footnote 3), the
    processes a WRITE reaches adopt one ⟨v, sn⟩ (``_last``) and the
    joiners of a round one set of maxima (``_joined``): a population
    holds a handful of spaces.  The three protocols share its adoption
    guard, the paper's "adopt if newer" rule.

    ``_index`` maps a key to its position: the key tuple's, copied only
    by an ``adopt`` that admits a key.  A quorum handler probes it with
    its message's key as it stands and comes here only on a miss.  A
    key tuple that names a key twice is refused (``ValueError`` naming
    the key).  ``reply`` is the REPLY a protocol derives from the space,
    filled on first use (sync's inquiry answer); a successor has none.
    """

    __slots__ = ("_keys", "_index", "reply")

    def __init__(
        self, keys: tuple[Any, ...] = (SINGLE_KEY,), cell: Cell = _UNSET
    ) -> None:
        self._index = _index_of(keys)
        self._keys = keys
        self.extend((cell,) * len(keys))
        self.reply = None

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
        """This space with ``cell`` at ``position`` (past the end: ``key``'s)."""
        successor = list.__new__(RegisterSpace)
        successor += self
        successor._keys, successor._index = self._keys, self._index
        successor.reply = None
        if position == len(self):
            successor.append(cell)
            successor._keys += (key,)
            successor._index = {**self._index, key: position}
        else:
            successor[position] = cell
        return successor

    def install(self, key: Any, value: Any, sequence: int) -> RegisterSpace:
        """The space with ``key``'s local copy set unconditionally."""
        global _last
        cell = (value, sequence)
        successor = self._with(self._position(key), cell)
        _last = (None, key, value, sequence, cell, successor)
        return successor

    def adopt(self, key: Any, value: Any, sequence: int) -> RegisterSpace:
        """The paper's adoption rule: the space with ``key`` at ⟨value,
        sequence⟩ iff that is strictly newer, else this space.

        Unlike :meth:`resolve`-gated operations, adoption *auto-admits*
        an unknown named key at ⟨⊥, −1⟩ (live resharding grows a shard's
        key set; its nodes get the key by ``MigInstall`` or a
        ``WriteMsg``), so the guard applies uniformly (a refused
        adoption still admits).  ``None`` is the default key.  The last
        adoption's successor and cell are reused where they are what
        this one builds (``_last``).
        """
        global _last
        last = _last
        if (
            last[0] is self
            and last[2] is value
            and last[3] == sequence
            and last[1] == key
        ):
            return last[5]
        position = 0 if key is None else self._index.get(key)
        if position is None:  # admitted at ⟨⊥, −1⟩, and guarded as any cell
            position = len(self)
            if sequence <= _UNSET[1]:
                return self._with(position, _UNSET, key)
        elif sequence <= self[position][1]:
            return self
        cell, successor = last[4], last[5]
        if last[2] is not value or last[3] != sequence:
            cell = (value, sequence)
            successor = self._with(position, cell, key)
        elif (
            position or len(self) != 1 or successor._index is not self._index
        ) and not (last[1] == key and _alike(last[0], self._keys, self)):
            # A single-key successor of the same keys is its cell alone;
            # a prior alike the last one has its successor.
            successor = self._with(position, cell, key)
        _last = (self, key, value, sequence, cell, successor)
        return successor

    def adopt_all(self, best: dict[Any, Cell]) -> RegisterSpace:
        """:meth:`adopt` of each key of this space that ``best`` maps to a
        ``(value, sequence)`` (a join's per-key maxima), as one successor:
        joiners whose folds end alike, or alike the last adoption, share
        one space (``_joined``, ``_last``)."""
        global _joined
        cells = [
            cell if offer is None or offer[1] <= cell[1] else offer
            for cell, offer in zip(self, map(best.get, self.keys))
        ]
        if all(map(is_, cells, self)):
            return self
        for space in (_joined, _last[5]):
            if _alike(space, self._keys, cells):
                return space
        successor = _joined = list.__new__(RegisterSpace)
        successor += cells
        successor._keys, successor._index = self._keys, self._index
        successor.reply = None
        return successor

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


#: key tuple → its ⟨⊥, −1⟩ space, built once: every joiner starts on it.
blank_space = cache(RegisterSpace)


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
      listening mode on the shared :func:`blank_space` of ``ctx.keys``
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
        #: The node's local copies, one cell per key: a shared value,
        #: rebound (never changed) by every transition.
        self.space = blank_space(ctx.keys) if seed is None else seed
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
        if self.is_active:
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
