"""Merged cluster histories: one observable behaviour, many shards.

Each shard of a :class:`~repro.cluster.system.ClusterSystem` records
its own :class:`~repro.core.history.History` (operations stamped with
the shard id, pids namespaced ``s{i}.p…``).  A :class:`ClusterHistory`
is the merged view on the common clock: iteration yields every shard's
operations in global invocation order, :func:`cluster_digest`
fingerprints the merge (covering each operation's shard), and
:meth:`shard_view` partitions the merge *back* into per-shard
histories — the inverse the cluster checkers are built on.

Correctness of a sharded store is per-shard correctness: keys never
span shards, so the merge is judged by handing each shard's view to
the unchanged single-system checkers (which in turn partition per
key).  ``tests/properties/test_cluster_checker_properties.py`` proves
the round trip: checking the merged view is *exactly* checking each
shard's own history.
"""

from __future__ import annotations

import hashlib
from operator import attrgetter
from typing import Any, Iterator, Sequence

from ..core.history import History, hash_rows
from ..sim.clock import Time
from ..sim.errors import HistoryError
from ..sim.operations import OperationHandle


_INVOCATION_ORDER = attrgetter("invoke_time", "op_id")


class ClusterHistory:
    """The merged operation record of one cluster run."""

    def __init__(
        self,
        shard_histories: Sequence[History],
        migrations: Sequence[Any] = (),
    ) -> None:
        if not shard_histories:
            raise HistoryError("a cluster history needs at least one shard")
        self._shards = tuple(shard_histories)
        self.initial_value = self._shards[0].initial_value
        #: Migration outcome records
        #: (:class:`~repro.cluster.migration.MigrationRecord`), in
        #: schedule order — empty for every non-resharding run.
        self.migrations = tuple(migrations)
        #: Keys whose ownership flipped at least once: their history
        #: legitimately spans shards, split at the flip, and is judged
        #: across the seam (:meth:`seam_view`) instead of per shard.
        self.migrated_keys: frozenset[Any] = frozenset(
            record.key for record in self.migrations if record.committed
        )
        #: Shards that served as source or destination of a committed
        #: handoff.  Their join snapshots include register slots whose
        #: authority moved mid-run (a source keeps the migrated key's
        #: frozen slot, stale by design; a destination adopts installed
        #: values its own projected history never wrote), so join
        #: *value* certification is delegated away from these shards —
        #: see :func:`~repro.cluster.checker.check_cluster_safety`.
        self.migration_shards: frozenset[int] = frozenset(
            shard
            for record in self.migrations
            if record.committed
            for shard in (record.source, record.dest)
        )
        self._merged_cache: list[OperationHandle] | None = None
        self._view_cache: dict[int, History] = {}
        self._seam_cache: dict[Any, History] = {}

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------

    def shard_ids(self) -> range:
        return range(len(self._shards))

    @property
    def horizon(self) -> Time | None:
        """The common close instant (``None`` while the run is open,
        or if any shard is still open)."""
        horizons = {h.horizon for h in self._shards}
        if None in horizons:
            return None
        return max(horizons)

    # ------------------------------------------------------------------
    # The merge (global invocation order on the common clock)
    # ------------------------------------------------------------------

    def merged_operations(self) -> list[OperationHandle]:
        """Every shard's operations in global invocation order.

        All shards ride one scheduler, so operation ids are assigned in
        global event order; sorting by ``(invoke_time, op_id)`` is the
        chronological merge, deterministic for a fixed seed.  A read a
        shard keeps as a row (:mod:`repro.core.history`) enters the
        merge as its handle view, so the shard and seam views re-record
        handles only.

        Memoized once every shard history is closed (the checkers call
        this once per shard view); open histories recompute, since
        shards can still append.  Treat the result as read-only.
        """
        if self._merged_cache is not None:
            return self._merged_cache
        merged = [op for shard in self._shards for op in shard]
        merged.sort(key=_INVOCATION_ORDER)
        if self.horizon is not None:
            self._merged_cache = merged
        return merged

    def __iter__(self) -> Iterator[OperationHandle]:
        return iter(self.merged_operations())

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def operations(self, kind: str | None = None) -> list[OperationHandle]:
        """Merged operations, optionally filtered by kind."""
        if kind is None:
            return self.merged_operations()
        return [op for op in self.merged_operations() if op.kind == kind]

    # ------------------------------------------------------------------
    # Partitioning the merge back (what the checkers consume)
    # ------------------------------------------------------------------

    def shard_view(self, shard: int) -> History:
        """Shard ``shard``'s history *reconstructed from the merge*.

        Filters the merged operation list by shard stamp and re-records
        it into a fresh :class:`History` (departures and horizon carried
        over).  The checkers judge these views, not the recorded
        per-shard histories, so the merge-and-partition round trip is
        itself under test — the property suite asserts the views judge
        identically to the originals.

        Memoized per shard once the run is closed — safety, atomicity
        and liveness checking all consume the same views, and a closed
        history never changes.
        """
        cached = self._view_cache.get(shard)
        if cached is not None:
            return cached
        source = self._shards[shard]
        view = History(source.initial_value)
        for op in self.merged_operations():
            if self.migrated_keys and op.key in self.migrated_keys:
                continue  # judged across the seam instead (seam_view)
            if op.shard == shard:
                view.record_operation(op)
        view._departures = dict(source._departures)
        if source.horizon is not None:
            view.close(source.horizon)
            if self.horizon is not None:
                self._view_cache[shard] = view
        return view

    def seam_view(self, key: Any) -> History:
        """The full cross-shard history of one migrated ``key``.

        A committed flip splits the key's timeline at the routing
        change: operations before it live in the source shard's
        history, operations after it in the destination's.  Neither
        shard view alone is checkable (each sees a torn half), so the
        handoff rule merges every shard's operations on the key into
        one fresh :class:`History` — departures pooled across shards
        (pid namespaces are disjoint) — and safety is judged on that
        seam-spanning record.  The migration protocol's freeze/drain
        guarantees writes never overlap across the seam, and the front
        door's cluster-wide value counter keeps written values unique,
        so the ordinary checkers apply unchanged.

        Joins are key-less and stay in the per-shard views; seam views
        are judged with join checking off.
        """
        cached = self._seam_cache.get(key)
        if cached is not None:
            return cached
        view = History(self.initial_value)
        for op in self.merged_operations():
            if op.key == key:
                view.record_operation(op)
        departures: dict[str, Time] = {}
        for shard in self._shards:
            departures.update(shard._departures)
        view._departures = departures
        horizon = self.horizon
        if horizon is not None:
            view.close(horizon)
            self._seam_cache[key] = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        per_shard = ", ".join(f"s{i}={len(h)}" for i, h in enumerate(self._shards))
        return f"ClusterHistory(shards={len(self._shards)}, ops={len(self)}: {per_shard})"


def cluster_digest(history: ClusterHistory) -> str:
    """SHA-256 fingerprint of a cluster run's merged operation sequence.

    The cluster analogue of
    :func:`~repro.core.history.operation_digest`: covers every
    operation's shard id on top of kind, key, process, timing and
    argument, in merged (global invocation) order — so a routing or
    shard-interleaving regression changes the digest even when each
    shard's own history still looks plausible.  The rows are written by
    :func:`~repro.core.history.hash_rows`, each led by its shard and
    always carrying its key.
    """
    sha = hashlib.sha256()
    hash_rows(sha, history, sharded=True)
    if history.migrations:
        # Resharding runs additionally pin every handoff outcome, so a
        # migration that commits at a different instant (or aborts for
        # a different reason) changes the digest even if the operation
        # stream happens to coincide.  Runs without migrations keep the
        # exact pre-resharding blob, byte for byte.
        blob = repr(
            [
                (
                    record.key,
                    record.source,
                    record.dest,
                    record.phase,
                    record.committed,
                    record.aborted,
                    record.reason,
                    record.retries,
                    record.started_at,
                    record.finished_at,
                    record.map_version,
                )
                for record in history.migrations
            ]
        )
        sha.update(blob.encode())
    return sha.hexdigest()
