"""Cluster workloads: one plan, routed at fire time to the owning shard.

The :class:`ClusterWorkloadDriver` takes the same
:class:`~repro.workloads.schedule.ReadOp` / ``WriteOp`` plans the
single-system :class:`~repro.workloads.schedule.WorkloadDriver`
consumes and installs them as one series on the cluster's shared
engine.  Each operation resolves its key's owning shard when it
fires, through the cluster front door
(:meth:`~repro.cluster.system.ClusterSystem.read` / ``write``), so a
plan installed before a migration flip still lands on the new owner.

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
from typing import TYPE_CHECKING

from ..sim.engine import collector_paused
from ..sim.errors import ExperimentError
from .generators import KeyPicker, uniform_key_picker, zipf_key_picker
from .schedule import ReadOp, WorkloadOp, WorkloadStats, WriteOp, install_series

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.system import ClusterSystem


class ClusterWorkloadDriver:
    """Installs one workload plan across a cluster's shards.

    Every operation resolves its owning shard *at firing time*: a write
    fired after a flip reaches the new owner, and a write fired during
    a freeze is deferred by the front door (counted in
    ``stats.writes_deferred``) rather than issued to a stale shard.  A
    write whose key still has one pending is skipped, as in the
    single-system driver.  Readers are drawn from the *current* owner's
    active set, from the cluster stream ``workload.cluster.readers``.

    ``dynamic=True`` is accepted and changes nothing; ``dynamic=False``
    (install-time routing, which no cluster has) is refused by name
    rather than silently ignored.
    """

    def __init__(self, cluster: "ClusterSystem", dynamic: bool = True) -> None:
        if not dynamic:
            raise ExperimentError(
                "ClusterWorkloadDriver(dynamic=False) is not supported: "
                "every cluster driver routes each operation at fire time"
            )
        self.cluster = cluster
        self.stats = WorkloadStats()
        self._rng = cluster.rng.stream("workload.cluster.readers")
        self._pending_writes: dict[object, object] = {}
        self._shard_ops: dict[int, int] = {}
        self._key_ops: dict[object, int] = {}
        self._installed = False

    @collector_paused()
    def install(self, plan: list[WorkloadOp]) -> None:
        """Schedule every planned operation (call once).

        ``key=None`` is resolved to the cluster's default key when the
        operation fires, so it shares that key's write serialization.
        """
        if self._installed:
            raise ExperimentError("cluster workload installed twice")
        self._installed = True
        install_series(self.cluster.engine, plan, self._fire_read, self._fire_write)

    def _fire_write(self, op: WriteOp) -> None:
        key = self.cluster.resolve_key(op.key)
        pending = self._pending_writes.get(key)
        if pending is not None and pending.pending:
            self.stats.writes_skipped += 1
            return
        handle = self.cluster.write(op.value, key=key)
        if handle is None:
            # Deferred by the front door (frozen or queued); it will
            # reach the then-current owner on unfreeze.
            self.stats.writes_deferred += 1
            return
        self._pending_writes[key] = handle
        self.stats.writes_issued += 1
        self.stats.write_handles.append(handle)
        self._count_shard_op(key)

    def _fire_read(self, op: ReadOp) -> None:
        key = self.cluster.resolve_key(op.key)
        shard = self.cluster.shard_for(key)
        reader = op.reader if op.reader is not None else self._pick_reader(shard)
        if reader is None or not shard.membership.is_present(reader):
            self.stats.reads_skipped += 1
            return
        if not shard.node(reader).is_active:
            self.stats.reads_skipped += 1
            return
        handle = self.cluster.read(key, pid=reader)
        self.stats.reads_issued += 1
        self.stats.read_handles.append(handle)
        self._count_shard_op(key)

    def _pick_reader(self, shard) -> str | None:
        candidates = shard.active_pids()
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _count_shard_op(self, key: object) -> None:
        shard = self.cluster.shard_of(key)
        self._shard_ops[shard] = self._shard_ops.get(shard, 0) + 1
        self._key_ops[key] = self._key_ops.get(key, 0) + 1

    def shard_op_counts(self) -> tuple[int, ...]:
        """Issued operations per shard — the skew made visible."""
        return tuple(
            self._shard_ops.get(shard, 0) for shard in range(len(self.cluster.shards))
        )

    def key_op_counts(self) -> dict[object, int]:
        """Issued operations per key: the rebalancer's per-key load
        signal — which keys make a hot shard hot."""
        return dict(self._key_ops)


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
    the seeded sequence — unchanged.
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
