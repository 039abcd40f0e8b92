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

:func:`install_shard_scoped` lands one fault plan on every shard,
scoped into its pid namespace and rescaled to its slice of the
population; :func:`schedule_round_robin_migrations` is the fixed
handoff pattern the explorer's ``migrations`` axis, ``repro migrate``,
E15 and the migration digest share.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace
from typing import TYPE_CHECKING

from ..runtime.assembly import scope_pid
from ..sim.engine import collector_paused
from ..sim.errors import ExperimentError
from .generators import KeyPicker, uniform_key_picker, zipf_key_picker
from .schedule import (
    ReadOp,
    WorkloadOp,
    WorkloadStats,
    WriteOp,
    install_series,
    named_process,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.migration import MigrationRecord
    from ..cluster.system import ClusterSystem
    from ..faults.plan import FaultPlan, PartitionFault
    from ..sim.clock import Time


class ClusterWorkloadDriver:
    """Installs one workload plan across a cluster's shards.

    Every operation resolves its owning shard *at firing time*: a write
    fired after a flip reaches the new owner, and a write fired during
    a freeze is deferred by the front door (counted in
    ``stats.writes_deferred``) rather than issued to a stale shard.  A
    write whose key still has one pending is skipped, as in the
    single-system driver.  Readers are drawn in place from the *current*
    owner's active list (``Membership.draw_active``), from the cluster
    stream ``workload.cluster.readers``, and read there directly; the
    handle goes to that shard's history.  An explicit reader must be a
    pid of the owning shard: one that never entered it is refused.

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
        install_series(self.cluster.engine, plan, self._fire)

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
        self._count_shard_op(self.cluster.shard_of(key), key)

    def _fire(self, op: WorkloadOp) -> None:
        """Fire one planned op: a write through :meth:`_fire_write`, a
        read here, inline."""
        if not isinstance(op, ReadOp):
            self._fire_write(op)
            return
        cluster = self.cluster
        key = cluster.resolve_key(op.key)
        index = cluster.shard_of(key)
        shard = cluster.shards[index]
        if op.reader is None:
            node = shard.membership.draw_active(self._rng)
        else:
            node = named_process(
                shard.membership,
                op.reader,
                op,
                "reader",
                f"shard {index}, which owns key {key!r}",
            )
        if node is None:
            self.stats.reads_skipped += 1
            return
        handle = node.read(key)
        shard.history.record_operation(handle)
        self.stats.reads_issued += 1
        self._count_shard_op(index, key)

    def _count_shard_op(self, shard: int, key: object) -> None:
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


#: A bare (un-namespaced) generated process identity, ``p0001`` style.
_BARE_SEED_PID = re.compile(r"p\d{4}")


def _shard_scoped_plan(
    plan: FaultPlan, index: int, shard_n: int, total_n: int
) -> FaultPlan:
    """Scope a library plan into shard ``index``, preserving geometry.

    The explorer library's partition groups name a *fraction* of the
    total seed population; inside an ``n/S``-sized shard the
    same literal pids would cover the whole shard and the "partition"
    would degenerate to seeds-versus-joiners.  Groups made entirely of
    bare seed pids are therefore rebuilt as the same fraction of the
    shard's (smaller) seed population — never all of it — so a
    partition-drop cell still splits the shard's quorum.  Two-group
    partitions rescale to *disjoint* leading pid ranges (falling back
    to the plain mapping when the shard is too small to hold both).
    Everything else (loss/spike filters, crash pins, mixed groups)
    gets the plain namespace mapping.
    """
    def pid_range(start: int, count: int) -> frozenset[str]:
        return frozenset(
            scope_pid(f"p{i:04d}", index) for i in range(start, start + count)
        )

    def scaled(group: frozenset[str]) -> int:
        return max(1, round(len(group) * shard_n / total_n))

    def rescale(fault: PartitionFault, mapped: PartitionFault) -> PartitionFault:
        groups = (fault.group_a, fault.group_b or frozenset())
        if not all(_BARE_SEED_PID.fullmatch(pid) for group in groups for pid in group):
            return mapped
        count_a = scaled(fault.group_a)
        if fault.group_b is None:
            count_a = min(count_a, max(1, shard_n - 1))
            return replace(fault, group_a=pid_range(1, count_a))
        # Two explicit groups: allocate *disjoint* leading pid ranges.
        count_b = scaled(fault.group_b)
        if count_a + count_b > shard_n:
            if shard_n < 2:
                # Too small to hold two disjoint non-empty groups at
                # any scale; the originals were disjoint, so plain
                # mapping keeps the plan valid (if degenerate, like
                # the shard itself).
                return mapped
            count_a = max(1, min(count_a, shard_n - 1))
            count_b = shard_n - count_a
        return replace(
            fault,
            group_a=pid_range(1, count_a),
            group_b=pid_range(1 + count_a, count_b),
        )

    mapped = plan.map_pids(lambda pid: scope_pid(pid, index))
    return replace(
        mapped,
        partitions=tuple(map(rescale, plan.partitions, mapped.partitions)),
    )


def install_shard_scoped(cluster: ClusterSystem, plan: FaultPlan) -> None:
    """Install a library ``plan`` on every shard of ``cluster``, each
    copy scoped into its shard's pid namespace and rescaled to the
    shard's slice of the population (:func:`_shard_scoped_plan`)."""
    for index, shard_n in enumerate(cluster.config.shard_sizes()):
        cluster.install_faults(
            _shard_scoped_plan(plan, index, shard_n, cluster.config.n),
            shards=[index],
            scope_pids=False,
        )


def schedule_round_robin_migrations(
    cluster: ClusterSystem, count: int, horizon: Time
) -> list[MigrationRecord]:
    """Schedule ``count`` key handoffs over ``horizon``; return their records.

    Keys round-robin; each hops one shard over (wrapping adds a hop so
    repeats of the same key keep moving); starts spread over
    [0.15, 0.55] of the horizon and retries capped at one so even a
    handoff that times out every phase under total migration-message
    loss still resolves — commit or clean abort, never a record left
    mid-phase at the horizon.  A negative count, or handoffs on a
    cluster with one shard (each would be a self-handoff), are refused
    by name.
    """
    shards = len(cluster.shards)
    if count < 0:
        raise ExperimentError(f"migrations must be non-negative, got {count!r}")
    if count and shards < 2:
        raise ExperimentError(
            f"migrations={count} needs somewhere to move keys: it requires "
            f"shards >= 2, got shards={shards}"
        )
    records = []
    for j in range(count):
        key = cluster.keys[j % len(cluster.keys)]
        hop = 1 + j // len(cluster.keys)
        dest = (cluster.shard_of(key) + hop) % shards
        if dest == cluster.shard_of(key):
            dest = (dest + 1) % shards
        start = horizon * (0.15 + 0.4 * j / count)
        records.append(cluster.schedule_migration(key, dest, at=start, max_retries=1))
    return records
