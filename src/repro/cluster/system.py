"""The sharded cluster runtime: S quorum groups on one clock.

A :class:`ClusterSystem` runs ``shards`` independent
:class:`~repro.runtime.system.DynamicSystem` populations — each with
its own churn controller, network, broadcast service and protocol
nodes — on one shared :class:`~repro.sim.engine.EventScheduler`, and
routes cluster-level ``read(key)`` / ``write(key, value)`` to the
shard that statically owns the key.  The paper's protocols are
untouched: a shard does not know it is a shard.  What sharding buys is
the scale lever the ROADMAP names — a broadcast (a write, a joiner's
inquiry round) reaches ``n / S`` processes instead of ``n``, so
per-node message load and churn-tick join traffic fall as the shard
count grows at fixed total population (experiment E14 measures
exactly this).

Determinism: the shared clock makes shard interleaving plain event
ordering; every shard draws randomness only from streams derived from
``derive_seed(cluster_seed, "shard{i}")``, and cluster-level draws
(workload shaping) come from the cluster's own registry — one seed
reproduces the whole cluster byte-for-byte
(:func:`~repro.cluster.history.cluster_digest` pins it).
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence, TYPE_CHECKING

from ..churn.controller import ChurnController
from ..core.checker import AtomicityReport, LivenessReport, SafetyReport
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..runtime.assembly import make_scheduler, scope_pid
from ..runtime.system import DynamicSystem
from ..sim.clock import Time
from ..sim.errors import ConfigError
from ..sim.operations import OperationHandle
from ..sim.rng import RngRegistry
from .checker import (
    check_cluster_liveness,
    check_cluster_safety,
    find_cluster_inversions,
)
from .config import ClusterConfig
from .history import ClusterHistory
from .migration import KeyMigration, MigrationRecord, MigrationSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.cluster_plan import ClusterFaultPlan


class ClusterSystem:
    """S independent shard populations behind one keyed front door."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.engine = make_scheduler(config.delta)
        #: Cluster-level RNG streams (workload shaping, key pickers) —
        #: disjoint from every shard's ``shard{i}``-derived streams.
        self.rng = RngRegistry(config.seed)
        #: The global key space: ``(None,)`` for a 1-key cluster,
        #: ``k0 … k{K-1}`` otherwise.
        self.keys: tuple[Any, ...] = config.key_tuple()
        self._owner: dict[Any, int] = {
            key: config.shard_of(key) for key in self.keys
        }
        self.shards: tuple[DynamicSystem, ...] = tuple(
            DynamicSystem(config.shard_config(i), engine=self.engine, shard_id=i)
            for i in range(config.shards)
        )
        self._closed = False
        self._history: ClusterHistory | None = None
        # -- live-resharding state (inert until a migration schedules) --
        #: Version of the key→shard map; bumped by every committed flip.
        self.map_version = 0
        #: ``(time, key, source, dest, map_version)`` per committed flip.
        self.ownership_log: list[tuple[Time, Any, int, int, int]] = []
        #: Every coordinator ever scheduled, in schedule order.
        self.migrations: list[KeyMigration] = []
        self._frozen_keys: set[Any] = set()
        self._write_queues: dict[Any, list[Any]] = {}
        self._last_write: dict[Any, OperationHandle] = {}
        self._writes_deferred = 0
        self._writes_dropped = 0
        #: Elastic mode (set by :meth:`schedule_migration`): the front
        #: door serializes writes per key and draws values from one
        #: cluster-wide counter, because a migrated key's history spans
        #: two shards and the checkers need globally unique values and
        #: non-overlapping writes across the seam.
        self._elastic = False
        self._value_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def resolve_key(self, key: Any) -> Any:
        """Map ``None`` to the default (first) key; validate names."""
        if key is None:
            return self.keys[0]
        if key not in self._owner:
            raise ConfigError(f"unknown cluster key {key!r}; have {self.keys}")
        return key

    def shard_of(self, key: Any = None) -> int:
        """The index of the shard owning ``key``."""
        return self._owner[self.resolve_key(key)]

    def shard_for(self, key: Any = None) -> DynamicSystem:
        """The shard system owning ``key``."""
        return self.shards[self.shard_of(key)]

    def keys_of_shard(self, shard: int) -> tuple[Any, ...]:
        """The keys shard ``shard`` owns (may be empty)."""
        return tuple(key for key in self.keys if self._owner[key] == shard)

    # ------------------------------------------------------------------
    # Cluster-level register operations
    # ------------------------------------------------------------------

    def read(self, key: Any = None, pid: str | None = None) -> OperationHandle:
        """Read ``key`` on its owning shard.

        ``pid`` must belong to the owning shard; ``None`` uses that
        shard's designated writer (always present, so ad-hoc pokes
        need no pid bookkeeping).
        """
        key = self.resolve_key(key)
        shard = self.shard_for(key)
        return shard.read(pid if pid is not None else shard.writer_pid, key=key)

    def write(
        self, value: Any | None = None, key: Any = None, pid: str | None = None
    ) -> OperationHandle | None:
        """Write ``key`` on its owning shard (its writer by default).

        ``value=None`` draws the owning shard's next unique value —
        uniqueness per shard is what the per-key checkers need, since
        keys never span shards.

        With migrations scheduled (*elastic* mode) the front door
        changes contract: values come from a cluster-wide counter, the
        explicit ``pid`` is ignored (a deferred write may land on a
        different shard than the caller assumed), and a write for a
        frozen or busy key is *deferred* — queued in order and issued
        to the then-current owner when the key unfreezes or the
        previous write settles.  Deferred writes return ``None``.
        """
        key = self.resolve_key(key)
        if not self._elastic:
            return self.shard_for(key).write(value, pid=pid, key=key)
        if value is None:
            value = self.next_value()
        last = self._last_write.get(key)
        if key in self._frozen_keys or (last is not None and last.pending):
            self._write_queues.setdefault(key, []).append(value)
            self._writes_deferred += 1
            return None
        return self._issue_write(key, value)

    def next_value(self) -> str:
        """A cluster-unique value for the next write (elastic mode)."""
        return f"w{next(self._value_counter)}"

    # ------------------------------------------------------------------
    # Live resharding (repro.cluster.migration)
    # ------------------------------------------------------------------

    def enable_elastic(self) -> None:
        """Flip the front door into elastic mode before the run starts.

        :meth:`schedule_migration` does this implicitly; callers that
        plan migrations *during* the run (a rebalancer watching load)
        must arm the serializing front door up front, because every
        write of the run has to share the cluster-wide value counter
        and per-key serialization with the handoffs that may follow.
        """
        if len(self.keys) == 1 and self.keys[0] is None:
            raise ConfigError(
                "elastic mode requires a named multi-key cluster "
                "(a 1-key cluster has nothing to reshard)"
            )
        self._elastic = True

    def schedule_migration(
        self, key: Any, dest: int, at: Time, **knobs: Any
    ) -> MigrationRecord:
        """Plan a handoff of ``key`` to shard ``dest`` at time ``at``.

        Must be called *before* the run starts (it flips the cluster
        into elastic mode — see :meth:`write` — and every write of the
        run must go through the serializing front door).  Returns the
        :class:`MigrationRecord` that the handoff will fill in.
        """
        key = self.resolve_key(key)
        if not 0 <= dest < len(self.shards):
            raise ConfigError(
                f"destination shard {dest} out of range [0, {len(self.shards)})"
            )
        self.enable_elastic()
        migration = KeyMigration(
            self,
            MigrationSpec(key=key, dest=dest, start=at, **knobs),
            migration_id=len(self.migrations) + 1,
        )
        migration.schedule()
        self.migrations.append(migration)
        return migration.record

    def migration_records(self) -> tuple[MigrationRecord, ...]:
        """Every scheduled migration's outcome record, in schedule order."""
        return tuple(m.record for m in self.migrations)

    def is_frozen(self, key: Any) -> bool:
        """Is ``key`` currently frozen by an in-flight migration?"""
        return key in self._frozen_keys

    @property
    def writes_deferred(self) -> int:
        """Writes the elastic front door queued instead of issuing."""
        return self._writes_deferred

    @property
    def writes_dropped(self) -> int:
        """Queued writes dropped because the owner's writer was gone."""
        return self._writes_dropped

    def _freeze(self, key: Any) -> None:
        self._frozen_keys.add(key)
        self._write_queues.setdefault(key, [])

    def _commit_flip(self, key: Any, dest: int, record: MigrationRecord) -> None:
        """Atomically flip routing and drain the deferred writes."""
        source = self._owner[key]
        self.map_version += 1
        self._owner[key] = dest
        record.map_version = self.map_version
        self.ownership_log.append((self.now, key, source, dest, self.map_version))
        self._unfreeze(key, record)

    def _abort_migration(self, key: Any, record: MigrationRecord) -> None:
        """Clean abort: ownership unchanged, deferred writes drain home."""
        self._unfreeze(key, record)

    def _unfreeze(self, key: Any, record: MigrationRecord) -> None:
        self._frozen_keys.discard(key)
        record.deferred_writes = len(self._write_queues.get(key, ()))
        self._drain_queue(key)

    def _issue_write(self, key: Any, value: Any) -> OperationHandle | None:
        """Issue one serialized write to the key's current owner.

        Chained: when the handle settles (complete *or* abandoned), the
        next queued value for the key goes out — unless the key froze
        again in between, in which case the queue waits for the next
        unfreeze.
        """
        handle = self._try_issue(key, value)
        if handle is None:
            # The value was dropped (writer absent); keep the queue
            # moving — iteratively, so a long deferred queue against a
            # crashed writer never grows the Python stack.
            self._drain_queue(key)
        return handle

    def _try_issue(self, key: Any, value: Any) -> OperationHandle | None:
        """Issue ``value`` to the key's owner, or drop-and-count it."""
        shard = self.shard_for(key)
        if not shard.membership.is_present(shard.writer_pid):
            # The owner's designated writer crashed; the write cannot
            # be issued.
            self._writes_dropped += 1
            return None
        handle = shard.write(value, key=key)
        self._last_write[key] = handle
        handle.add_done_callback(lambda h, key=key: self._write_settled(key))
        return handle

    def _write_settled(self, key: Any) -> None:
        if key not in self._frozen_keys:
            self._drain_queue(key)

    def _drain_queue(self, key: Any) -> None:
        # A loop, not recursion: every dropped value continues draining
        # in the same frame, so a several-thousand-entry queue whose
        # owner lost its writer drains without touching the recursion
        # limit mid-run.
        while True:
            if key in self._frozen_keys:
                return
            queue = self._write_queues.get(key)
            if not queue:
                return
            last = self._last_write.get(key)
            if last is not None and last.pending:
                return
            if self._try_issue(key, queue.pop(0)) is not None:
                return

    # ------------------------------------------------------------------
    # Dynamicity and faults
    # ------------------------------------------------------------------

    def attach_churn(self, rate: float = 0.0, **kwargs: Any) -> tuple[ChurnController, ...]:
        """Install one churn adversary per shard (same knobs each).

        ``rate`` is the paper's per-population churn fraction; each
        shard applies it to its own slice, so the cluster-wide join/
        leave volume matches a single population of the same total
        size — only the *traffic per join* shrinks with the shard.
        """
        return tuple(shard.attach_churn(rate=rate, **kwargs) for shard in self.shards)

    def install_faults(
        self,
        plan: FaultPlan,
        shards: Sequence[int] | None = None,
        scope_pids: bool = True,
    ) -> tuple[FaultInjector, ...]:
        """Install ``plan`` on the selected shards (``None`` = all).

        Per-shard scoping is the point: ``shards=[2]`` takes down
        exactly shard 2 — a partition there cannot touch traffic of
        any other quorum group, and only that shard's fault counters
        move.  ``scope_pids`` rewrites bare ``p0001``-style identities
        in the plan into each target shard's namespace
        (:meth:`FaultPlan.map_pids`); pass ``False`` for plans already
        written against ``s{i}.p…`` names.  Each installed injector
        draws from its own shard's RNG streams, so fault schedules are
        reproducible and shard-independent.
        """
        targets = range(len(self.shards)) if shards is None else shards
        injectors = []
        for index in targets:
            if not 0 <= index < len(self.shards):
                raise ConfigError(
                    f"shard index {index} out of range [0, {len(self.shards)})"
                )
            scoped = plan
            if scope_pids:
                scoped = plan.map_pids(
                    lambda pid, index=index: scope_pid(pid, index)
                )
            injectors.append(self.shards[index].install_faults(scoped))
        return tuple(injectors)

    def install_cluster_faults(
        self, plan: "ClusterFaultPlan", scope_pids: bool = True
    ) -> tuple[FaultInjector, ...]:
        """Install a :class:`~repro.faults.cluster_plan.ClusterFaultPlan`.

        Each shard receives the cluster-wide schedule merged with its
        own per-shard schedules (one injector per faulted shard); shards
        the composed plan leaves empty get no injector at all.
        """
        injectors = []
        for index in range(len(self.shards)):
            shard_plan = plan.plan_for(index)
            if shard_plan.is_empty:
                continue
            injectors.extend(
                self.install_faults(shard_plan, shards=[index], scope_pids=scope_pids)
            )
        return tuple(injectors)

    # ------------------------------------------------------------------
    # Running and closing
    # ------------------------------------------------------------------

    @property
    def now(self) -> Time:
        return self.engine.now

    def run_until(self, horizon: Time) -> None:
        """Advance the shared clock to ``horizon`` (all shards at once)."""
        self.engine.run_until(horizon)

    def run_for(self, duration: Time) -> None:
        self.engine.run_until(self.engine.now + duration)

    def close(self) -> ClusterHistory:
        """Freeze every shard's history and return the merged view."""
        if not self._closed:
            for shard in self.shards:
                shard.close()
            self._history = ClusterHistory(
                [s.history for s in self.shards],
                migrations=self.migration_records(),
            )
            self._closed = True
        assert self._history is not None
        return self._history

    @property
    def history(self) -> ClusterHistory:
        """The merged history (closes the run on first access)."""
        return self.close()

    # ------------------------------------------------------------------
    # Checking (delegates to the per-shard machinery)
    # ------------------------------------------------------------------

    def check_safety(
        self, check_joins: bool = True, paranoid: bool = False
    ) -> SafetyReport:
        return check_cluster_safety(
            self.close(), check_joins=check_joins, paranoid=paranoid
        )

    def check_atomicity(self, paranoid: bool = False) -> AtomicityReport:
        return find_cluster_inversions(self.close(), paranoid=paranoid)

    def check_liveness(self, grace: Time | None = None) -> LivenessReport:
        if grace is None:
            grace = 3.0 * self.config.delta
        return check_cluster_liveness(self.close(), grace=grace)

    # ------------------------------------------------------------------
    # Aggregate accounting (the E14 measurements)
    # ------------------------------------------------------------------

    @property
    def sent_count(self) -> int:
        return sum(shard.network.sent_count for shard in self.shards)

    @property
    def delivered_count(self) -> int:
        return sum(shard.network.delivered_count for shard in self.shards)

    @property
    def dropped_count(self) -> int:
        return sum(shard.network.dropped_count for shard in self.shards)

    @property
    def faulted_count(self) -> int:
        return sum(shard.network.faulted_count for shard in self.shards)

    def per_node_delivered(self) -> float:
        """Delivered messages per process of the *total* population.

        The E14 scaling metric: at fixed ``n`` this falls as the shard
        count grows, because each broadcast only reaches one shard.
        """
        return self.delivered_count / self.config.n

    def fault_counters(self) -> dict[str, int]:
        """Summed per-cause injector counters over the faulted shards."""
        totals: dict[str, int] = {}
        for shard in self.shards:
            if shard.faults is not None:
                for cause, count in shard.faults.counters().items():
                    totals[cause] = totals.get(cause, 0) + count
        return totals

    def active_counts(self) -> tuple[int, ...]:
        """Active-process count per shard (a population health probe)."""
        return tuple(len(shard.active_pids()) for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSystem(shards={len(self.shards)}, keys={len(self.keys)}, "
            f"n={self.config.n}, t={self.engine.now!r})"
        )
