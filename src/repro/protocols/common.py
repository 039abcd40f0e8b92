"""Machinery shared by every protocol implementation.

Historically each protocol hand-rolled the same bookkeeping: a reply
set (or dict) collected until a timer fired or a majority threshold was
met, a request/sequence counter tagging which round a reply answers,
and a "pick the reply with the greatest sequence number" adoption step.
That logic now lives here, once:

* :class:`QuorumPhase` — one collection round: tagged per-sender
  entries, an optional quorum threshold, and the deterministic
  max-by-``(sequence, sender)`` selection every protocol's adoption
  rule uses.  Entries are *keyed* — a single phase can collect batched
  per-key payloads, which is how one join inquiry round serves every
  key of a :class:`~repro.core.register.RegisterSpace`.
* :class:`PhaseTracker` — the dict ``key -> QuorumPhase`` of one node,
  each phase carrying its key's request counter (the ES protocol's
  ``read_sn``, ABD's ``request``), so per-key protocol state rides one
  ``SimProcess`` per node instead of one process per register.

The sync, ES and ABD nodes all instantiate these instead of keeping
private reply sets; the timer- vs. quorum-gated difference is just
whether a phase has a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple

#: The control value the paper's operations return on success.
OK = "ok"

#: One batched payload entry: ``(key, value, sequence)``.
Entry = tuple[Any, Any, int]


class QuorumPhase:
    """One reply-collection round of a quorum (or timer) gated phase.

    Each offering sender contributes a tuple of keyed entries
    (``(key, value, sequence)``); for classic single-register payloads
    that tuple has length one.  ``threshold`` is the quorum size the
    phase waits for (``None`` for timer-gated phases like the
    synchronous join, which close on a clock instead of a count).
    ``open()`` resets the phase *in place*, so watcher predicates that
    captured the phase keep observing the newest round — exactly the
    attribute-rebinding semantics the protocols historically relied on
    when concurrent operations at one node superseded each other.
    ``request`` numbers the round where a protocol tags its rounds.
    """

    __slots__ = ("threshold", "active", "request", "_offers", "_bulk", "_bulk_entries")

    def __init__(self, threshold: int | None = None) -> None:
        self.threshold = threshold
        self.active = False
        self.request = 0
        self._offers: dict[str, tuple[Entry, ...]] = {}
        self._bulk = 0
        self._bulk_entries: tuple[Entry, ...] = ()

    def open(self) -> "QuorumPhase":
        """Start a fresh round: drop prior offers, mark in-progress."""
        self.active = True
        self._offers = {}
        self._bulk = 0
        self._bulk_entries = ()
        return self

    def settle(self) -> None:
        """Mark the round finished (offers are kept for inspection)."""
        self.active = False

    def offer(self, sender: str, entries: Iterable[Entry]) -> None:
        """Record ``sender``'s reply; a re-offer supersedes the old one."""
        self._offers[sender] = tuple(entries)

    def offer_ack(self, sender: str) -> None:
        """Record a bare acknowledgement (no payload, just the count)."""
        self._offers[sender] = ()

    def record_bulk(self, count: int, entries: Iterable[Entry] = ()) -> None:
        """Fold ``count`` *anonymous* same-round replies into the phase.

        The mesoscale plane's entry point: an analytically aggregated
        cohort answers a tracer's inquiry as a single arrival-count
        increment rather than ``count`` per-sender offers.  The count
        feeds :attr:`count` / :meth:`satisfied` directly; ``entries``
        (typically one ``(key, value, sequence)`` describing the
        aggregate register state) compete in :meth:`best_per_key` with an
        empty-string sender id, which sorts below every real pid — a
        named tracer carrying the same sequence number wins the tie,
        keeping adoption deterministic.
        """
        self._bulk += int(count)
        self._bulk_entries += tuple(entries)

    @property
    def count(self) -> int:
        return len(self._offers) + self._bulk

    def satisfied(self) -> bool:
        """Has the quorum threshold been met?  (Timer phases: never.)"""
        return (
            self.threshold is not None
            and len(self._offers) + self._bulk >= self.threshold
        )

    def senders(self) -> tuple[str, ...]:
        return tuple(self._offers)

    def best_per_key(self) -> dict[Any, tuple[Any, int]]:
        """The ``(value, sequence)`` to adopt, for every key any offer
        mentions — one pass over the offers however many keys a batched
        join round carries.

        Deterministic max by ``(sequence, sender)`` — ties on the
        sequence number are broken by sender id purely for determinism;
        entries with equal sequence numbers carry equal values anyway.
        Bulk entries compete with the empty-string sender id, which
        sorts below every real pid.

        Repliers holding the same state offer *equal* entry tuples, and
        among equal offers only the greatest sender can win a tie, so
        the offers are first folded to one — the greatest sender's —
        per distinct tuple (C-speed equality, the elements are mostly
        identical objects; values are ``Any``, so nothing is hashed),
        and the walk over offers × keys judges one offer per distinct
        state.
        """
        folded: list[tuple[Entry, ...]] = []
        senders: list[str] = []
        for sender, entries in self._offers.items():
            try:
                at = folded.index(entries)
            except ValueError:
                folded.append(entries)
                senders.append(sender)
            else:
                if sender > senders[at]:
                    senders[at] = sender
                    folded[at] = entries
        best: dict[Any, tuple[int, str, Any]] = {}
        for sender, entries in zip(senders, folded):
            for key, value, sequence in entries:
                held = best.get(key)
                if (
                    held is None
                    or sequence > held[0]
                    or (sequence == held[0] and sender > held[1])
                ):
                    best[key] = (sequence, sender, value)
        for key, value, sequence in self._bulk_entries:
            held = best.get(key)
            if held is None or sequence > held[0]:
                best[key] = (sequence, "", value)
        return {
            key: (value, sequence) for key, (sequence, _, value) in best.items()
        }

    def best_for(self, key: Any) -> tuple[Any, int] | None:
        """:meth:`best_per_key` for one key; ``None`` if no offer
        mentions it."""
        return self.best_per_key().get(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gate = f"threshold={self.threshold}" if self.threshold else "timer-gated"
        return f"QuorumPhase({gate}, offers={len(self._offers)}, active={self.active})"


class PhaseTracker(dict):
    """One node's per-key phases: the dict ``key -> QuorumPhase`` itself.

    Multiplexes a :class:`QuorumPhase` per register key over a single
    ``SimProcess``; the number a key's rounds are tagged with (the ES
    ``read_sn``, ABD's ``request``: pre-incremented by the reader, so 0
    is the join's own batched inquiry) is ``phase.request``.  A phase
    exists from the round that first opens it: a handler finds it with
    one C-level probe, ``tracker.get(key)``, which builds nothing for a
    key never opened — ``None`` reads "request 0, nobody collecting".
    """

    __slots__ = ()

    def open(self, key: Any, threshold: int | None) -> QuorumPhase:
        """Open a fresh round for ``key`` and return its phase, gated at
        ``threshold`` (per round: ABD's is known only once its universe is)."""
        phase = self.get(key)
        if phase is None:
            phase = self[key] = QuorumPhase()
        phase.threshold = threshold
        return phase.open()

    def reading_keys(self) -> list[Any]:
        """Keys whose phase is currently open, in deterministic order.

        Sorted by string rendering so the ``None`` single-register key
        and named keys coexist.
        """
        return sorted(
            (key for key, phase in self.items() if phase.active),
            key=lambda key: (key is not None, str(key)),
        )


@dataclass(frozen=True)
class JoinResult:
    """What a join operation adopted, exposed for checking Lemma 3.

    The paper's join returns the control value ``ok``; the library
    additionally reports the value/sequence-number pair the joiner
    installed so the :class:`~repro.core.checker.RegularityChecker` can
    verify that it is the last value written before the join or a
    concurrently written one.
    """

    value: Any
    sequence: int

    @property
    def ok(self) -> str:
        """The paper's return value."""
        return OK


@dataclass(frozen=True)
class KeyedJoinResult:
    """A multi-key join's adoptions: one ``(value, sequence)`` per key.

    ``value``/``sequence`` expose the default (first) key's adoption so
    single-register tooling keeps working; the per-key checker views a
    keyed history through :meth:`for_key`.
    """

    adoptions: Mapping[Any, tuple[Any, int]]

    @property
    def value(self) -> Any:
        return next(iter(self.adoptions.values()))[0]

    @property
    def sequence(self) -> int:
        return next(iter(self.adoptions.values()))[1]

    @property
    def ok(self) -> str:
        """The paper's return value."""
        return OK

    def for_key(self, key: Any) -> JoinResult:
        """This join's adoption restricted to one key."""
        value, sequence = self.adoptions[key]
        return JoinResult(value, sequence)


# ----------------------------------------------------------------------
# Key-migration payloads (repro.cluster.migration)
# ----------------------------------------------------------------------
#
# The live-resharding handoff moves one key between two shards through
# four point-to-point message types.  They live here — next to
# :class:`QuorumPhase`, which collects their replies — because the
# handlers sit on :class:`~repro.core.register.RegisterNode` itself
# (every protocol's nodes can serve a migration), and because fault
# plans target them by payload type name, exactly like protocol
# messages ("crash the destination agent at the second ``MigInstall``").


class MigFetch(NamedTuple):
    """Coordinator → source node: report your ⟨value, sn⟩ for ``key``."""

    key: Any
    migration_id: int


class MigFetchReply(NamedTuple):
    """Source node → coordinator agent: my local copy of ``key``."""

    key: Any
    migration_id: int
    value: Any
    sequence: int


class MigInstall(NamedTuple):
    """Coordinator → destination node: adopt ⟨value, sn⟩ for ``key``."""

    key: Any
    migration_id: int
    value: Any
    sequence: int


class MigAck(NamedTuple):
    """Destination node → coordinator agent: install acknowledged."""

    migration_id: int


#: Payload type names of the migration handoff, for fault-plan
#: targeting and the explorer's in-model classification (the handoff
#: promises abort-safety under arbitrary migration-message loss, so
#: losses confined to these payloads never excuse a violation).
MIGRATION_PAYLOADS = frozenset(
    {"MigFetch", "MigFetchReply", "MigInstall", "MigAck"}
)


def make_join_result(space: Any) -> JoinResult | KeyedJoinResult:
    """The join return value for a node's register space.

    Single-key spaces keep returning the classic :class:`JoinResult`
    (byte-compatible with the pre-RegisterSpace library); multi-key
    spaces report every key's adoption.
    """
    if space.is_single:
        return JoinResult(space.value(), space.sequence())
    return KeyedJoinResult(
        {key: (value, sequence) for key, value, sequence in space.entries()}
    )
