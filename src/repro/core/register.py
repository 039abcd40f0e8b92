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
extrapolation is a *store* of many.  Each node therefore owns a
:class:`RegisterSpace` — per-key ``⟨value, sequence⟩`` cells — and
every operation addresses a key.  The single-register system is the
``keys == 1`` special case whose key is the :data:`SINGLE_KEY`
sentinel ``None``: its message payloads, histories and digests are
byte-identical to the pre-RegisterSpace library, which is what keeps
the trajectory artifacts and the seed corpus comparable across the
refactor.  Safety of a keyed store is per-key safety: the checkers
partition histories by key (see :meth:`History.sub_history
<repro.core.history.History.sub_history>`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
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

#: The cell the last install or adoption put in place: back-to-back
#: adoptions of its ⟨value, sn⟩ — every recipient of a WRITE, the
#: joiners adopting it — install this same tuple, so a population that
#: adopted a write shares one cell with its writer, the way the seeds
#: share their initial one.
_last_cell: Cell = _UNSET

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


class _KeyIndexes(dict):
    """key tuple → its ``key → position`` index, built once per key
    tuple (on the first subscript that misses) and shared by every space
    built from that tuple: a population of 10⁵ holds one.  Read-only
    once built: an ``adopt`` that admits a key copies first."""

    def __missing__(self, keys: tuple[Any, ...]) -> dict[Any, int]:
        if not keys:
            raise ValueError("a register space needs at least one key")
        index = {key: position for position, key in enumerate(keys)}
        if len(index) != len(keys):
            duplicate = next(key for key in keys if keys.count(key) > 1)
            raise ValueError(f"register key {duplicate!r} appears twice in {keys}")
        self[keys] = index
        return index


_INDEXES = _KeyIndexes()


class RegisterSpace(list):
    """Per-key local copies of the keyed register store.

    Every protocol node owns one: the per-key ``⟨value, sequence⟩``
    pairs that used to live as a node's single ``_register``/``_sn``
    attribute pair.  The space is pure local state — adoption guards
    (``sequence > current``) live here so the three protocols share
    one implementation of the paper's "adopt if newer" rule.

    The space IS its list of cells, one ``(value, sequence)`` tuple per
    key in key order (``_keys``): a node pays one list object and one
    slot per key (a population of 10⁵ pays it 10⁵ times), and a read of
    both halves is one subscript.  ``_index`` maps a key to its
    position; it is built once per key tuple and shared by every space
    built from that tuple, and only an ``adopt`` that admits a key
    gives its space a private copy.  A cell tuple is replaced, never
    mutated, so ``snapshot`` hands it out as is.  A quorum handler
    probes ``_index`` with its message's key as it stands (``read`` /
    ``write`` resolved it) and comes here only on a miss.  A key tuple
    that names a key twice is refused (``ValueError`` naming the key).
    Building a space is one subscript of the index memo and one
    exact-size ``extend`` of its cells (an ``append`` would
    over-allocate the slot array).

    ``cell`` is what every key starts from: ⟨⊥, −1⟩ for a joiner, the
    initial ⟨value, 0⟩ for a seed (footnote 3) — one tuple the whole
    population shares; :meth:`adopt` keeps the sharing, installing one
    tuple for a run of adoptions of the same ⟨value, sn⟩.
    """

    __slots__ = ("_keys", "_index", "version")

    def __init__(
        self, keys: tuple[Any, ...] = (SINGLE_KEY,), cell: Cell = _UNSET
    ) -> None:
        if keys.__class__ is not tuple:
            keys = tuple(keys)
        self._index = _INDEXES[keys]
        self._keys = keys
        self.extend((cell,) * len(keys))
        #: Bumped by every mutator call (even a rejected adoption, so
        #: callers may over-invalidate but never under-invalidate), and
        #: 1 for a seeded space, as if its initial cell were installed.
        #: Protocol nodes key cached derived payloads — e.g. an inquiry
        #: reply, rebuilt tens of thousands of times under churn from a
        #: space that never changed — on this counter.
        self.version = 0 if cell is _UNSET else 1

    @property
    def keys(self) -> tuple[Any, ...]:
        return self._keys

    @property
    def is_single(self) -> bool:
        return len(self._keys) == 1

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
        fields of an inquiry reply, in one call.  Replies are the
        dominant point-to-point traffic under churn, so this exists to
        keep the hot path to one method call instead of three."""
        value, sequence = self[0]
        if len(self) == 1:
            return value, sequence, None
        return value, sequence, self.entries()

    def install(self, key: Any, value: Any, sequence: int) -> None:
        """Unconditionally set ``key``'s local copy."""
        global _last_cell
        position = self._position(key)
        self.version += 1
        self[position] = _last_cell = (value, sequence)

    def adopt(self, key: Any, value: Any, sequence: int) -> bool:
        """The paper's adoption rule: install iff strictly newer.

        Unlike :meth:`resolve`-gated operations, adoption *auto-admits*
        an unknown named key: live resharding grows a destination
        shard's key set at migration time, and any node of that shard —
        including ones created before the migration — may then receive
        the key via ``MigInstall``, a ``WriteMsg`` broadcast or a
        batched join reply.  The admitted cell starts at ⟨⊥, -1⟩, so
        the newer-wins guard applies uniformly, and the space's index
        becomes its own copy (the shared one is never written).  The
        ``None`` sentinel still resolves to the default key
        (single-register payloads are key-less), so non-migrating
        systems are untouched.  The installed cell is the last
        install's or adoption's when it holds the same ``value`` object
        and ``sequence`` (see ``_last_cell``).
        """
        global _last_cell
        self.version += 1
        if key is None:
            position = 0
        else:
            position = self._index.get(key)
            if position is None:
                position = len(self)
                self._keys += (key,)
                self._index = {**self._index, key: position}
                self.append(_UNSET)
        if sequence > self[position][1]:
            cell = _last_cell
            if cell[0] is not value or cell[1] != sequence:
                cell = _last_cell = (value, sequence)
            self[position] = cell
            return True
        return False

    def bump(self, key: Any = None) -> int:
        """Increment and return ``key``'s sequence number (a write)."""
        position = self._position(key)
        self.version += 1
        value, sequence = self[position]
        self[position] = (value, sequence + 1)
        return sequence + 1

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

    * a node created as a *seed* (``seed=(initial value, 0)``) starts
      active and already stores the register's initial value on every
      key — the paper's "initially, n processes compose the system"
      premise (footnote 3);
    * a node created as a *joiner* starts in listening mode and must be
      driven through :meth:`join` before it may read or write.

    ``ctx`` must have been bound to the node class (:meth:`bind`).
    """

    __slots__ = ("ctx", "space", "migration_sink")

    def __init__(self, pid: str, ctx: NodeContext, seed: Cell | None = None) -> None:
        SimProcess.__init__(self, pid, ctx.engine, seed is not None)
        self.ctx = ctx
        #: The node's local copies, one cell per key.
        self.space = RegisterSpace(ctx.keys, _UNSET if seed is None else seed)
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
        self.space.adopt(msg.key, msg.value, msg.sequence)
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
