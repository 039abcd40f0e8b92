"""The sharded cluster runtime: S quorum groups on one clock.

A :class:`ClusterSystem` runs ``shards`` independent
:class:`~repro.runtime.system.DynamicSystem` populations — each with
its own churn controller, network, broadcast service and protocol
nodes — on one shared :class:`~repro.sim.engine.EventScheduler`, so
shard interleaving is plain deterministic event ordering.  Writes pass
one front door that routes each to the shard owning its key, serializes
them per key and draws their values from one cluster-wide counter, so a
key's history stays checkable when live resharding
(:mod:`repro.cluster.migration`) moves it between shards.  The paper's
protocols are untouched: a shard does not know it is a shard.  What
sharding buys is the scale lever the ROADMAP names — a broadcast (a
write, a joiner's inquiry round) reaches ``n / S`` processes instead of
``n``, so per-node message load and churn-tick join traffic fall as the
shard count grows at fixed total population (E14 measures exactly
this)::

    from repro.cluster import ClusterConfig, ClusterSystem

    cluster = ClusterSystem(ClusterConfig(shards=4, keys=16, n=48, seed=7))
    cluster.attach_churn(rate=0.02)       # one adversary per shard
    cluster.write("hello", key="k3")      # to k3's owner, serialized per key
    cluster.run_for(100.0)
    report = cluster.check_safety()       # merged, judged per shard per key

Config surface.  ``ClusterConfig(shards, keys, n, delta, protocol,
delay, seed, …)``: ``n`` is the *total* population, split
floor-plus-remainder across shards; keys are placed by seeded hashing
(``derive_seed(seed, "cluster.keymap:{key}") % shards`` — every client
derives the same placement, no routing state); shard ``i`` runs under
pid namespace ``s{i}.p…`` and root seed ``derive_seed(seed,
"shard{i}")``.  Fault plans install cluster-wide or shard-scoped
(``install_faults(plan, shards=[2])`` takes down exactly shard 2; bare
``p0001``-style pids are rewritten into the target shard's namespace).
A workload runs through the one
:class:`~repro.workloads.schedule.WorkloadDriver`, which routes each
operation through :attr:`ClusterSystem.owners` when it fires, so a
handoff may be scheduled before or during the run alike;
``shard_skewed_key_picker`` (:mod:`repro.workloads.cluster`) makes
**hot-shard** traffic (Zipf by shard, then uniform within the shard).

Determinism: every shard draws randomness only from streams derived
from ``derive_seed(cluster_seed, "shard{i}")``, and cluster-level draws
(workload shaping) come from the cluster's own registry — one seed
reproduces the whole cluster byte-for-byte.
:func:`~repro.cluster.history.cluster_digest` fingerprints the merged
history *including each operation's shard id*; the golden store pins it
through ``digest/migration_digest`` and ``digest/rebalance_digest``.
``shards=1`` wraps the standalone system unchanged (a parity test pins
the 1-shard cluster's history against a standalone ``DynamicSystem``
built from the same derived config).  Checking delegates: the cluster
is safe iff every shard's history (reconstructed from the merge) passes
the unchanged single-system checkers, which
``tests/properties/test_cluster_checker_properties.py`` proves
equivalent to checking each shard directly, fast and paranoid.

E14 (:mod:`repro.experiments.e14_sharded_cluster`) reads the columns
``per_node_load``, ``join_round_msgs`` and ``hot_share`` against
``shards ∈ {1, 2, 4, 8}``; ``repro explore --shards 1 4`` sweeps the
same axis under the fault-plan library.
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence

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


class ClusterSystem:
    """S independent shard populations behind one keyed front door."""

    #: The RNG stream a workload driver draws random readers from.
    reader_stream = "workload.cluster.readers"

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.engine = make_scheduler(config.delta)
        #: Cluster-level RNG streams (workload shaping, key pickers) —
        #: disjoint from every shard's ``shard{i}``-derived streams.
        self.rng = RngRegistry(config.seed)
        #: The global key space: ``(None,)`` for a 1-key cluster,
        #: ``k0 … k{K-1}`` otherwise.
        self.keys: tuple[Any, ...] = config.key_tuple()
        #: The key→shard map: each key's owning shard index, flipped by
        #: every committed migration (the workload driver routes by it).
        self.owners: dict[Any, int] = {
            key: config.shard_of(key) for key in self.keys
        }
        self.shards: tuple[DynamicSystem, ...] = tuple(
            DynamicSystem(config.shard_config(i), engine=self.engine, shard_id=i)
            for i in range(config.shards)
        )
        self._closed = False
        self._history: ClusterHistory | None = None
        # -- front door and live-resharding state --
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
        self._value_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def resolve_key(self, key: Any) -> Any:
        """Map ``None`` to the default (first) key; validate names."""
        if key is None:
            return self.keys[0]
        if key not in self.owners:
            raise ConfigError(f"unknown cluster key {key!r}; have {self.keys}")
        return key

    def shard_of(self, key: Any = None) -> int:
        """The index of the shard owning ``key``."""
        return self.owners[self.resolve_key(key)]

    def shard_for(self, key: Any = None) -> DynamicSystem:
        """The shard system owning ``key``."""
        return self.shards[self.shard_of(key)]

    def keys_of_shard(self, shard: int) -> tuple[Any, ...]:
        """The keys shard ``shard`` owns (may be empty)."""
        return tuple(key for key in self.keys if self.owners[key] == shard)

    # ------------------------------------------------------------------
    # Cluster-level register operations
    # ------------------------------------------------------------------

    def write(
        self, value: Any | None = None, key: Any = None
    ) -> OperationHandle | None:
        """Write ``key`` through the front door, by its owner's writer.

        ``value=None`` draws the next cluster-wide value: a migrated
        key's history spans two shards, and the checkers need globally
        unique values and non-overlapping writes across the seam.  A
        write for a frozen or busy key is *deferred* — queued in order
        and issued to the then-current owner when the key unfreezes or
        the previous write settles.  Deferred writes return ``None``.
        """
        key = self.resolve_key(key)
        if value is None:
            value = self.next_value()
        last = self._last_write.get(key)
        if key in self._frozen_keys or (last is not None and last.pending):
            self._write_queues.setdefault(key, []).append(value)
            self._writes_deferred += 1
            return None
        return self._issue_write(key, value)

    def next_value(self) -> str:
        """A cluster-unique value for the next write."""
        return f"w{next(self._value_counter)}"

    # ------------------------------------------------------------------
    # Live resharding (repro.cluster.migration)
    # ------------------------------------------------------------------

    def check_reshardable(self) -> None:
        """Refuse live resharding on a 1-key cluster: nothing to move."""
        if len(self.keys) == 1 and self.keys[0] is None:
            raise ConfigError(
                "live resharding requires a named multi-key cluster "
                "(a 1-key cluster has nothing to reshard)"
            )

    def schedule_migration(
        self, key: Any, dest: int, at: Time, **knobs: Any
    ) -> MigrationRecord:
        """Plan a handoff of ``key`` to shard ``dest`` at time ``at``,
        before the run or during it.

        Returns the :class:`MigrationRecord` that the handoff will fill
        in.
        """
        self.check_reshardable()
        key = self.resolve_key(key)
        if not 0 <= dest < len(self.shards):
            raise ConfigError(
                f"destination shard {dest} out of range [0, {len(self.shards)})"
            )
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
        """Writes the front door queued instead of issuing."""
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
        source = self.owners[key]
        self.map_version += 1
        self.owners[key] = dest
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

    def fault_counters(self) -> dict[str, int]:
        """Summed per-cause injector counters over the faulted shards."""
        totals: dict[str, int] = {}
        for shard in self.shards:
            for cause, count in shard.fault_counters().items():
                totals[cause] = totals.get(cause, 0) + count
        return totals

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSystem(shards={len(self.shards)}, keys={len(self.keys)}, "
            f"n={self.config.n}, t={self.engine.now!r})"
        )
