"""Cluster workloads: one plan, routed to the owning shards.

The :class:`ClusterWorkloadDriver` takes the same
:class:`~repro.workloads.schedule.ReadOp` / ``WriteOp`` plans the
single-system :class:`~repro.workloads.schedule.WorkloadDriver`
consumes, splits them by each operation's owning shard (static key
routing) and delegates to one per-shard ``WorkloadDriver`` — so the
per-key write serialization, reader selection and skip accounting are
the proven single-system machinery, shard by shard.

:func:`shard_skewed_key_picker` is the hot-shard generator: it draws a
*shard* first (uniform, or Zipf so one shard takes most of the
traffic — the production failure shape sharding has to survive) and
then a key uniformly within that shard.  Combined with the driver this
makes hot-shard scenarios first-class: the hot shard saturates while
the cold shards idle, and per-shard checking shows whether skew ever
threatens per-key regularity (it must not — shards are independent).
"""

from __future__ import annotations

import random
from dataclasses import fields, replace
from typing import TYPE_CHECKING

from ..sim.engine import collector_paused
from ..sim.errors import ExperimentError
from .generators import KeyPicker, uniform_key_picker, zipf_key_picker
from .schedule import (
    ReadOp,
    WorkloadDriver,
    WorkloadOp,
    WorkloadStats,
    WriteOp,
    check_plan,
    install_series,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.system import ClusterSystem


class ClusterWorkloadDriver:
    """Installs one workload plan across a cluster's shards.

    Two routing modes:

    * **static** (default) — operations are split by owning shard at
      install time and delegated to one single-system
      :class:`WorkloadDriver` per shard.  Cheapest, and byte-identical
      to the pre-resharding driver, but blind to routing changes.
    * **dynamic** (``dynamic=True``) — each operation resolves its
      owning shard *at firing time* through the cluster front door
      (:meth:`ClusterSystem.read` / ``write``), which is what live
      resharding requires: a write fired after a flip must reach the
      new owner, and a write fired during a freeze is deferred by the
      front door (counted in ``stats.writes_deferred``) rather than
      issued to a stale shard.  Readers are drawn from the *current*
      owner's active set, from the dedicated cluster stream
      ``workload.cluster.readers`` (only created in dynamic mode, so
      static runs draw exactly what they always drew).
    """

    def __init__(
        self,
        cluster: "ClusterSystem",
        avoid_writer_reads: bool = False,
        dynamic: bool = False,
    ) -> None:
        self.cluster = cluster
        self.dynamic = dynamic
        self._installed = False
        if dynamic:
            self.drivers: tuple[WorkloadDriver, ...] = ()
            self._stats = WorkloadStats()
            self._rng = cluster.rng.stream("workload.cluster.readers")
            self._avoid_writer_reads = avoid_writer_reads
            self._pending_writes: dict[object, object] = {}
            self._shard_ops: dict[int, int] = {}
            self._key_ops: dict[object, int] = {}
        else:
            #: One single-system driver per shard; their stats are the
            #: ground truth, :attr:`stats` just aggregates them.
            self.drivers = tuple(
                WorkloadDriver(shard, avoid_writer_reads=avoid_writer_reads)
                for shard in cluster.shards
            )

    @collector_paused()
    def install(self, plan: list[WorkloadOp]) -> None:
        """Route every planned operation to its key's owning shard.

        Keys are materialized first (``key=None`` becomes the cluster's
        default key), so a shard owning several keys serializes writes
        on the *cluster* key, never on its private default slot.
        """
        if self._installed:
            raise ExperimentError("cluster workload installed twice")
        self._installed = True
        if self.dynamic:
            install_series(
                self.cluster.engine, plan, self._fire_read, self._fire_write
            )
            return
        check_plan(plan, self.cluster.now)  # positions in *this* plan
        per_shard: list[list[WorkloadOp]] = [[] for _ in self.cluster.shards]
        for op in plan:
            key = self.cluster.resolve_key(op.key)
            per_shard[self.cluster.shard_of(key)].append(replace(op, key=key))
        for driver, sub_plan in zip(self.drivers, per_shard):
            if sub_plan:
                driver.install(sub_plan)

    # ------------------------------------------------------------------
    # Dynamic firing (routing resolved at fire time)
    # ------------------------------------------------------------------

    def _fire_write(self, op: WriteOp) -> None:
        key = self.cluster.resolve_key(op.key)
        pending = self._pending_writes.get(key)
        if pending is not None and pending.pending:
            self._stats.writes_skipped += 1
            return
        handle = self.cluster.write(op.value, key=key)
        if handle is None:
            # Deferred by the elastic front door (frozen or queued);
            # it will reach the then-current owner on unfreeze.
            self._stats.writes_deferred += 1
            return
        self._pending_writes[key] = handle
        self._stats.writes_issued += 1
        self._stats.write_handles.append(handle)
        self._count_shard_op(key)

    def _fire_read(self, op: ReadOp) -> None:
        key = self.cluster.resolve_key(op.key)
        shard = self.cluster.shard_for(key)
        reader = op.reader if op.reader is not None else self._pick_reader(shard)
        if reader is None or not shard.membership.is_present(reader):
            self._stats.reads_skipped += 1
            return
        if not shard.node(reader).is_active:
            self._stats.reads_skipped += 1
            return
        handle = self.cluster.read(key, pid=reader)
        self._stats.reads_issued += 1
        self._stats.read_handles.append(handle)
        self._count_shard_op(key)

    def _pick_reader(self, shard) -> str | None:
        candidates = shard.active_pids()
        if self._avoid_writer_reads:
            candidates = [pid for pid in candidates if pid != shard.writer_pid]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _count_shard_op(self, key: object) -> None:
        shard = self.cluster.shard_of(key)
        self._shard_ops[shard] = self._shard_ops.get(shard, 0) + 1
        self._key_ops[key] = self._key_ops.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def shard_op_counts(self) -> tuple[int, ...]:
        """Issued operations per shard — the skew made visible."""
        if self.dynamic:
            return tuple(
                self._shard_ops.get(shard, 0)
                for shard in range(len(self.cluster.shards))
            )
        return tuple(
            d.stats.reads_issued + d.stats.writes_issued for d in self.drivers
        )

    def key_op_counts(self) -> dict[object, int]:
        """Issued operations per key (dynamic mode only).

        The rebalancer's per-key load signal: which keys make a hot
        shard hot.  Static mode routes at install time and never
        tracks per-key counts; asking there is a usage bug.
        """
        if not self.dynamic:
            raise ExperimentError(
                "key_op_counts requires a dynamic cluster driver"
            )
        return dict(self._key_ops)

    @property
    def stats(self) -> WorkloadStats:
        """Cluster-wide aggregate of the per-shard driver stats.

        Aggregation walks ``WorkloadStats``'s own fields — lists are
        concatenated, counters summed — so adding a field to the
        dataclass can never silently vanish from cluster totals.
        """
        if self.dynamic:
            return self._stats
        total = WorkloadStats()
        for driver in self.drivers:
            for field in fields(WorkloadStats):
                mine = getattr(total, field.name)
                theirs = getattr(driver.stats, field.name)
                if isinstance(mine, list):
                    mine.extend(theirs)
                else:
                    setattr(total, field.name, mine + theirs)
        return total


def shard_skewed_key_picker(
    cluster: "ClusterSystem",
    rng: random.Random,
    distribution: str = "zipf",
    exponent: float = 1.2,
) -> KeyPicker:
    """A key picker that skews traffic by *shard*, not by key.

    Draws the shard from ``distribution`` over the shards that own at
    least one key (``"zipf"`` makes shard rank 0 the hot shard;
    ``"uniform"`` spreads evenly), then a key uniformly within the
    drawn shard.  Two draws per operation, both from ``rng``, so a
    skewed plan is exactly as reproducible as its base plan.

    Shard *rank* is fixed at construction (so the hot shard stays the
    hot shard), but the keys within the drawn shard are resolved at
    pick time: after a committed migration flip, draws for a shard
    route to the keys it owns *now*, never by stale ownership.  A
    shard that has since lost every key falls back to a uniform draw
    over all cluster keys, keeping the per-pick draw count — and so
    the seeded sequence for static clusters — exactly as before.
    """
    populated = [
        shard
        for shard in range(len(cluster.shards))
        if cluster.keys_of_shard(shard)
    ]
    if not populated:
        raise ExperimentError("no shard owns any key; nothing to pick")
    if distribution == "zipf":
        pick_shard = zipf_key_picker(populated, rng, exponent)
    elif distribution == "uniform":
        pick_shard = uniform_key_picker(populated, rng)
    else:
        raise ExperimentError(
            f"unknown shard distribution {distribution!r}; "
            f"choose from ['uniform', 'zipf']"
        )

    def pick() -> object:
        keys = cluster.keys_of_shard(pick_shard()) or cluster.keys
        return keys[rng.randrange(len(keys))]

    return pick
