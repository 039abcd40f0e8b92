"""Live resharding: fault-tolerant key migration between shards.

A :class:`KeyMigration` moves one key from its owning (source) shard to
a destination shard while the cluster keeps serving traffic.  The
handoff runs in four phases on the shared cluster clock:

1. **freeze** — the cluster front door stops issuing writes for the
   key (they are deferred, not dropped) and waits for the in-flight
   write, if any, to settle.  Reads keep routing to the source shard:
   graceful degradation, never unavailability.
2. **copy** — an *agent* node on the source shard (its designated
   writer) polls every active source process with ``MigFetch``; replies
   land in a majority-gated :class:`~repro.protocols.common.QuorumPhase`
   and the freshest ⟨value, sn⟩ wins by the paper's
   max-by-``(sequence, sender)`` rule.
3. **install** — the destination shard's key set grows
   (:meth:`~repro.runtime.system.DynamicSystem.register_key`), and an
   agent on the destination sends ``MigInstall`` to every *present*
   process there.  The phase commits only under **full coverage**: every
   polled pid has acked or has since departed.  Full coverage (not a
   mere majority) is required because the synchronous protocol's reads
   are purely local — after the flip, any active destination node may
   serve a read of the key, so all of them must hold the value first.
   Nodes that enter the destination *after* the install round own a
   cell for the key from construction and adopt it through the ordinary
   batched join replies (every replier has processed its ``MigInstall``
   by the time join inquiries go out — the install round's δ bound).
4. **flip + drain** — routing flips atomically in the cluster's
   versioned key map, and the deferred writes drain to the new owner in
   deferral order.

Robustness is the point: every remote phase runs under a timeout with
bounded retries and multiplicative backoff; re-copy and re-install are
idempotent (adoption is newer-wins, acks unconditional); and any
exhausted phase takes the clean **abort** path — the key unfreezes with
ownership unchanged and the deferred writes drain back to the source.
A crash of either agent, loss of every migration message, or the run
ending mid-handoff all leave the cluster serviceable and checkable:
either the flip committed or the source still owns the key, never two
owners, never none.  Each phase times out after ``3δ`` by default.
Coordination faults are *in-model*: the explorer strips losses that
touch only migration payloads before it classifies a cell, so a
violation under ``mig-loss`` is a bug, not excused breakage, and
``tests/cluster/test_resharding_storm.py`` pins the storm matrix
(crash-at-copy, crash-at-install, total loss, loss plus crash, × seeds)
at zero in-model violations with every handoff resolved::

    record = cluster.schedule_migration("k3", dest=2, at=40.0)
    cluster.run_until(120.0)
    assert record.committed or record.aborted  # never stuck, never two owners

A ``MigInstall`` is the key-admitting adoption
(:meth:`~repro.core.register.RegisterSpace.adopt`): a destination node
whose space lacks the key admits it, and nodes in one register state
land on one successor, the one their shard's space table holds.

*Checking across the seam.*  A committed handoff splits a key's record
across two shards; ``ClusterHistory.seam_view(key)`` stitches both
sides into one judgeable history (freeze and drain keep writes off the
seam), while per-shard views exclude migrated keys.  Join snapshots on
the two handoff shards are the one excused judgement — a keyless join's
default slot stops being a function of the shard's own history once a
key crosses — and reads stay certified everywhere.

*Storms are plain plans.*  A resharding-storm corpus entry is an
ordinary ``ScenarioSpec`` whose ``FaultPlan`` is scoped into every shard
(``install_shard_scoped``); ``ClusterSystem.install_faults(plan,
shards=[i])`` takes down one shard alone, and
``CrashFault(phase="MigInstall")`` crashes a node at exactly that step.
Cluster cells are classified against the per-shard churn cap
``(1 − 1/n_s)/(3δ)`` of their smallest shard
(``sharded_synchronous_churn_bound``), not the single-population
``1/(3δ)``: at ``n_s = 6, δ = 5`` the honest cap is ≈ 0.0556.

*How E15 reads.*  ``repro experiments --ids E15`` schedules three
handoffs per cell and sweeps churn × coordination loss: without
``mig-loss`` every handoff commits (latency ≈ the freeze, copy and
install round trips); with 100 % coordination loss every handoff aborts
cleanly, deferred writes drain back, and the register stays regular.
``repro migrate`` runs one such cell ad hoc, and ``repro explore
--migrations 2 --plans mig-storm`` hunts the boundary.

Determinism: the coordinator draws no randomness — polls walk
memberships in entry order, timeouts are fixed multiples of δ — so a
migration schedule replays byte-identically under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from ..protocols.common import MigFetch, MigInstall, QuorumPhase
from ..sim.clock import Time
from ..sim.errors import NetworkError
from ..sim.events import Priority

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import ClusterSystem

#: Phase names, in handoff order, as recorded on :class:`MigrationRecord`.
PHASE_PENDING = "pending"
PHASE_FREEZE = "freeze"
PHASE_COPY = "copy"
PHASE_INSTALL = "install"
PHASE_COMMITTED = "committed"
PHASE_ABORTED = "aborted"

#: How many times a busy key (another migration holds the freeze) is
#: re-armed before the newcomer gives up.
MAX_START_DEFERRALS = 50


@dataclass(frozen=True)
class MigrationSpec:
    """One planned handoff: move ``key`` to shard ``dest`` at ``start``.

    Timeouts default to ``3δ`` (the synchronous protocol's worst-case
    round trip plus slack); each retry multiplies the wait by
    ``backoff``.  ``max_retries`` bounds the *extra* attempts per remote
    phase — after the last one times out, the migration aborts.
    """

    key: Any
    dest: int
    start: Time
    freeze_timeout: Time | None = None
    fetch_timeout: Time | None = None
    install_timeout: Time | None = None
    max_retries: int = 2
    backoff: float = 1.5


@dataclass
class MigrationRecord:
    """What one migration actually did — the checkable outcome.

    ``committed`` and ``aborted`` are mutually exclusive; both ``False``
    means the run ended mid-handoff (the key stayed frozen and owned by
    the source, still serviceable for reads).
    """

    key: Any
    source: int
    dest: int
    scheduled_at: Time
    started_at: Time | None = None
    finished_at: Time | None = None
    committed: bool = False
    aborted: bool = False
    reason: str = ""
    phase: str = PHASE_PENDING
    retries: int = 0
    deferred_writes: int = 0
    map_version: int | None = None

    @property
    def finished(self) -> bool:
        return self.committed or self.aborted

    @property
    def latency(self) -> Time | None:
        """Freeze-to-outcome wall time (``None`` if never started/finished)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "source": self.source,
            "dest": self.dest,
            "phase": self.phase,
            "committed": self.committed,
            "aborted": self.aborted,
            "reason": self.reason,
            "retries": self.retries,
            "deferred_writes": self.deferred_writes,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "map_version": self.map_version,
        }


class KeyMigration:
    """The coordinator driving one :class:`MigrationSpec` to an outcome.

    A plain object outside every membership — it perturbs no quorum
    population and no broadcast fan-out.  It talks to the shards through
    *agent* nodes (each shard's designated writer): sends go out from
    the agent's pid, and the agent's ``migration_sink`` routes
    ``MigFetchReply`` / ``MigAck`` deliveries back here.
    """

    def __init__(
        self, cluster: "ClusterSystem", spec: MigrationSpec, migration_id: int = 0
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.migration_id = migration_id
        self.record = MigrationRecord(
            key=spec.key,
            source=cluster.shard_of(spec.key),
            dest=spec.dest,
            scheduled_at=spec.start,
        )
        delta = cluster.config.delta
        self._freeze_timeout = spec.freeze_timeout or 3.0 * delta
        self._fetch_timeout = spec.fetch_timeout or 3.0 * delta
        self._install_timeout = spec.install_timeout or 3.0 * delta
        self._finished = False
        self._frozen = False
        self._freeze_drained = False
        self._copy_done = False
        self._fetch_phase: QuorumPhase | None = None
        self._install_phase: QuorumPhase | None = None
        self._install_poll: tuple[str, ...] = ()
        self._agents: list[Any] = []
        self._start_deferrals = 0

    # ------------------------------------------------------------------
    # Scheduling and start
    # ------------------------------------------------------------------

    def schedule(self) -> None:
        """Arm the migration on the cluster clock."""
        self.cluster.engine.schedule_at(
            self.spec.start, self._begin, priority=Priority.TIMER,
            label=f"migration start {self.spec.key!r}",
        )

    def _begin(self) -> None:
        if self._finished:
            return
        cluster, spec = self.cluster, self.spec
        if cluster.is_frozen(spec.key):
            # Another migration holds the key; re-arm a little later.
            self._start_deferrals += 1
            if self._start_deferrals > MAX_START_DEFERRALS:
                self._abort("busy")
                return
            cluster.engine.schedule(
                cluster.config.delta, self._begin, priority=Priority.TIMER,
                label=f"migration re-arm {spec.key!r}",
            )
            return
        source = cluster.shard_of(spec.key)
        self.record.source = source
        self.record.started_at = cluster.now
        if source == spec.dest:
            # Nothing to move; never freezes, counts as a clean abort.
            self._abort("noop", frozen=False)
            return
        self.record.phase = PHASE_FREEZE
        cluster._freeze(spec.key)
        self._frozen = True
        in_flight = cluster._last_write.get(spec.key)
        if in_flight is None or not in_flight.pending:
            self._freeze_drained = True
            self._start_copy()
            return
        in_flight.add_done_callback(lambda handle: self._on_freeze_drained())
        cluster.engine.schedule(
            self._freeze_timeout, self._freeze_timed_out,
            priority=Priority.TIMER, label=f"migration freeze timeout {spec.key!r}",
        )

    def _on_freeze_drained(self) -> None:
        if self._finished or self._freeze_drained:
            return
        self._freeze_drained = True
        self._start_copy()

    def _freeze_timed_out(self) -> None:
        if self._finished or self._freeze_drained:
            return
        self._abort("freeze-timeout")

    # ------------------------------------------------------------------
    # Copy: majority poll of the source shard
    # ------------------------------------------------------------------

    def _start_copy(self) -> None:
        if self._finished:
            return
        self.record.phase = PHASE_COPY
        source_sys = self.cluster.shards[self.record.source]
        agent_pid = source_sys.writer_pid
        if not source_sys.membership.is_present(agent_pid):
            self._abort("source-agent-departed")
            return
        self._attach_sink(source_sys.node(agent_pid))
        self._fetch_phase = QuorumPhase().open()
        if not self._send_fetch_round(attempt=0):
            return
        self._arm_copy_timeout(attempt=0)

    def _send_fetch_round(self, attempt: int) -> bool:
        """(Re-)poll the source actives; returns ``False`` on abort."""
        source_sys = self.cluster.shards[self.record.source]
        agent_pid = source_sys.writer_pid
        poll = source_sys.active_pids()
        if not poll:
            self._abort("no-active-source")
            return False
        assert self._fetch_phase is not None
        self._fetch_phase.threshold = len(poll) // 2 + 1
        message = MigFetch(self.spec.key, self.migration_id)
        try:
            source_sys.network.send_round(agent_pid, poll, message)
        except NetworkError:
            self._abort("source-agent-departed")
            return False
        return True

    def _arm_copy_timeout(self, attempt: int) -> None:
        wait = self._fetch_timeout * (self.spec.backoff ** attempt)
        self.cluster.engine.schedule(
            wait, self._copy_timed_out, attempt,
            priority=Priority.TIMER, label=f"migration copy timeout {self.spec.key!r}",
        )

    def _copy_timed_out(self, attempt: int) -> None:
        if self._finished or self._copy_done:
            return
        assert self._fetch_phase is not None
        if self._fetch_phase.satisfied():
            self._finish_copy()
            return
        if attempt >= self.spec.max_retries:
            self._abort("copy-timeout")
            return
        self.record.retries += 1
        if self._send_fetch_round(attempt + 1):
            if self._fetch_phase.satisfied():
                self._finish_copy()
            else:
                self._arm_copy_timeout(attempt + 1)

    def on_fetch_reply(self, sender: str, msg: Any) -> None:
        """Delivery hook: a source node reported its copy of the key."""
        if self._finished or self._copy_done or self._fetch_phase is None:
            return
        if msg.migration_id != self.migration_id or msg.key != self.spec.key:
            return
        self._fetch_phase.offer(sender, ((msg.key, msg.value, msg.sequence),))
        if self._fetch_phase.satisfied():
            self._finish_copy()

    def _finish_copy(self) -> None:
        if self._finished or self._copy_done:
            return
        self._copy_done = True
        assert self._fetch_phase is not None
        self._fetch_phase.settle()
        best = self._fetch_phase.best_for(self.spec.key)
        if best is None:  # pragma: no cover - offers always carry the key
            self._abort("copy-empty")
            return
        self._start_install(*best)

    # ------------------------------------------------------------------
    # Install: full-coverage round over the destination shard
    # ------------------------------------------------------------------

    def _start_install(self, value: Any, sequence: int) -> None:
        if self._finished:
            return
        self.record.phase = PHASE_INSTALL
        dest_sys = self.cluster.shards[self.spec.dest]
        agent_pid = dest_sys.writer_pid
        if not dest_sys.membership.is_present(agent_pid):
            self._abort("dest-agent-departed")
            return
        dest_sys.register_key(self.spec.key)
        self._attach_sink(dest_sys.node(agent_pid))
        self._install_phase = QuorumPhase().open()
        self._install_poll = tuple(dest_sys.membership.present_pids())
        self._install_value = (value, sequence)
        if not self._send_install_round():
            return
        self._arm_install_timeout(attempt=0)

    def _send_install_round(self) -> bool:
        """(Re-)send ``MigInstall`` to every unacked, still-present pid."""
        dest_sys = self.cluster.shards[self.spec.dest]
        agent_pid = dest_sys.writer_pid
        if not dest_sys.membership.is_present(agent_pid):
            self._abort("dest-agent-departed")
            return False
        assert self._install_phase is not None
        acked = set(self._install_phase.senders())
        value, sequence = self._install_value
        message = MigInstall(self.spec.key, self.migration_id, value, sequence)
        is_present = dest_sys.membership.is_present
        pending = [
            pid for pid in self._install_poll
            if pid not in acked and is_present(pid)
        ]
        try:
            dest_sys.network.send_round(agent_pid, pending, message)
        except NetworkError:
            self._abort("dest-agent-departed")
            return False
        return True

    def _arm_install_timeout(self, attempt: int) -> None:
        wait = self._install_timeout * (self.spec.backoff ** attempt)
        self.cluster.engine.schedule(
            wait, self._install_timed_out, attempt,
            priority=Priority.TIMER,
            label=f"migration install timeout {self.spec.key!r}",
        )

    def _install_timed_out(self, attempt: int) -> None:
        if self._finished:
            return
        if self._install_covered():
            self._commit()
            return
        if attempt >= self.spec.max_retries:
            self._abort("install-timeout")
            return
        self.record.retries += 1
        if self._send_install_round():
            self._arm_install_timeout(attempt + 1)

    def _install_covered(self) -> bool:
        """Full coverage: every polled pid acked or has departed."""
        assert self._install_phase is not None
        acked = set(self._install_phase.senders())
        membership = self.cluster.shards[self.spec.dest].membership
        return all(
            pid in acked or not membership.is_present(pid)
            for pid in self._install_poll
        )

    def on_install_ack(self, sender: str, msg: Any) -> None:
        """Delivery hook: a destination node acked its install."""
        if self._finished or self._install_phase is None:
            return
        if msg.migration_id != self.migration_id:
            return
        self._install_phase.offer_ack(sender)
        if self._install_covered():
            self._commit()

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------

    def _commit(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.record.phase = PHASE_COMMITTED
        self.record.committed = True
        self.record.finished_at = self.cluster.now
        self._detach_sinks()
        assert self._install_phase is not None
        self._install_phase.settle()
        self.cluster._commit_flip(self.spec.key, self.spec.dest, self.record)

    def _abort(self, reason: str, frozen: bool | None = None) -> None:
        if self._finished:
            return
        self._finished = True
        self.record.aborted = True
        self.record.reason = reason
        self.record.finished_at = self.cluster.now
        self.record.phase = PHASE_ABORTED
        self._detach_sinks()
        if frozen is None:
            frozen = self._frozen
        if frozen:
            # Ownership never changed; deferred writes drain to the
            # source.  Values staged at the destination are harmless —
            # routing never points there.
            self.cluster._abort_migration(self.spec.key, self.record)

    # ------------------------------------------------------------------
    # Agent plumbing
    # ------------------------------------------------------------------

    def _attach_sink(self, node: Any) -> None:
        node.migration_sink = self
        self._agents.append(node)

    def _detach_sinks(self) -> None:
        for node in self._agents:
            if node.migration_sink is self:
                node.migration_sink = None
        self._agents.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyMigration(key={self.spec.key!r}, "
            f"{self.record.source}->{self.spec.dest}, phase={self.record.phase})"
        )
