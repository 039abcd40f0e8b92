"""The dynamic system runtime: one object that owns a whole simulated run.

:class:`DynamicSystem` composes the kernel (engine, trace, membership),
the network substrate (delay model, channels, broadcast), the protocol
nodes and the operation history, and exposes the levers experiments
pull:

* ``spawn_joiner()`` / ``leave(pid)`` — manual dynamicity, used by the
  scripted scenarios;
* ``attach_churn(...)`` — the constant-churn adversary of Section 2.1;
* ``read(pid)``, ``write(value, pid)`` — invoke register operations and
  record them in the history;
* ``run_until(t)`` / ``run_for(d)`` — advance simulated time;
* ``check_safety()``, ``check_liveness()``, ``check_atomicity()`` —
  judge the observable history against Section 2.2.

The initial population follows the paper's premise: ``n`` seed
processes are already active at time 0 and hold the initial value with
sequence number 0.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..churn.active_set import ActiveSetTracker
from ..churn.controller import ChurnController
from ..churn.model import ConstantChurn
from ..churn.profiles import RateProfile
from ..core.checker import (
    AtomicityReport,
    LivenessChecker,
    LivenessReport,
    RegularityChecker,
    SafetyReport,
    find_new_old_inversions,
)
from ..core.history import History
from ..core.register import NodeContext, OP_READ, OP_WRITE, RegisterNode
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..protocols import PROTOCOLS
from ..protocols.abd import UNIVERSE_KEY
from ..sim.clock import Time
from ..sim.engine import EventScheduler, collector_paused
from ..sim.errors import ConfigError, ProcessError
from ..sim.operations import OperationHandle
from ..sim.trace import TraceKind
from .assembly import build_substrate
from .config import SystemConfig


class DynamicSystem:
    """A fully wired simulated dynamic distributed system.

    ``engine`` injects a shared scheduler (the sharded-cluster case:
    every shard of a :class:`~repro.cluster.system.ClusterSystem` rides
    one clock); ``None`` keeps the historical private engine.
    ``shard_id`` marks this system as one shard — its history stamps
    every operation with the shard id so merged cluster views can be
    partitioned back.
    """

    #: ``True`` only on :class:`~repro.runtime.mesoscale.MesoscaleSystem`
    #: — a plain DynamicSystem handed a mesoscale config would silently
    #: simulate all n processes exactly, so the mismatch is rejected.
    mesoscale_capable = False

    def __init__(
        self,
        config: SystemConfig,
        engine: EventScheduler | None = None,
        shard_id: int | None = None,
    ) -> None:
        if config.mode == "mesoscale" and not self.mesoscale_capable:
            raise ConfigError(
                "mode='mesoscale' needs MesoscaleSystem — build via "
                "repro.runtime.mesoscale.make_system(config)"
            )
        self.config = config
        self.shard_id = shard_id
        substrate = build_substrate(config, engine=engine)
        self.engine = substrate.engine
        self.owns_engine = substrate.owns_engine
        self.rng = substrate.rng
        self.trace = substrate.trace
        self.membership = substrate.membership
        self.delay_model = substrate.delay_model
        self.network = substrate.network
        self.broadcast = substrate.broadcast
        self.history = History(config.initial_value, shard=shard_id)
        self._node_class = PROTOCOLS[config.protocol]
        #: The register space's keys: ``(None,)`` for the classic
        #: single register, named keys for a multi-register store (a
        #: cluster shard's ``key_set`` names exactly the keys it owns).
        self.keys: tuple[Any, ...] = config.key_tuple()
        self._ctx = NodeContext(
            engine=self.engine,
            network=self.network,
            broadcast=self.broadcast,
            trace=self.trace,
            n=config.n,
            delta=config.delta,
            extra=dict(config.extra),
            keys=self.keys,
        )
        self._pid_counter = itertools.count(1)
        self._value_counter = itertools.count(1)
        self._churn: ChurnController | None = None
        self._faults: FaultInjector | None = None
        self._closed = False
        if config.faults is not None:
            self.install_faults(config.faults)
        self.seed_pids: tuple[str, ...] = self._create_seeds()
        self.writer_pid: str = self.seed_pids[0]
        # The tracker installs after the seeds exist so its t=0 probe
        # sees the paper's initial condition |A(0)| = n.
        self.tracker = ActiveSetTracker(
            self.engine, self.membership, period=config.sample_period
        )
        self.tracker.install()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _create_seeds(self) -> tuple[str, ...]:
        pids = self._build_seeds(self.config.n)
        self._ctx.extra.setdefault(UNIVERSE_KEY, pids)
        return pids

    @collector_paused()
    def _build_seeds(self, count: int) -> tuple[str, ...]:
        """Create ``count`` seed processes: present, active and holding
        the initial value at the current instant — one pass, everything
        loop-invariant hoisted (at n = 10⁵ this loop is the build)."""
        node_class, ctx = self._node_class, self._ctx
        enter, mark_active = self.membership.enter, self.membership.mark_active
        now, value = self.engine.now, self.config.initial_value
        record = self.trace.record if self.trace.enabled else None
        pids = []
        for _ in range(count):
            pid = self._next_pid()
            node = node_class(pid, ctx)
            enter(node)
            node.init_as_seed(value, sequence=0)
            mark_active(pid, now)
            if record is not None:
                record(now, TraceKind.ENTER, pid, seed=True)
                record(now, TraceKind.ACTIVE, pid, seed=True)
            pids.append(pid)
        return tuple(pids)

    def _next_pid(self) -> str:
        return f"{self.config.pid_prefix}{next(self._pid_counter):04d}"

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def now(self) -> Time:
        return self.engine.now

    def node(self, pid: str) -> RegisterNode:
        """The protocol node for ``pid`` (present or departed)."""
        process = self.membership.process(pid)
        if not isinstance(process, RegisterNode):  # pragma: no cover - safety net
            raise ProcessError(f"{pid} is not a register node")
        return process

    def active_pids(self) -> list[str]:
        """Identities currently in the active mode, in entry order."""
        return self.membership.active_pids()

    def present_count(self) -> int:
        return len(self.membership)

    def next_value(self) -> str:
        """A fresh, unique value for the next write (``w1``, ``w2``, ...)."""
        return f"w{next(self._value_counter)}"

    def register_key(self, key: Any) -> None:
        """Admit ``key`` into this system's register space (migration).

        Every node constructed from now on owns a cell for the key;
        nodes already present receive it via ``MigInstall`` adoption
        (the :class:`~repro.cluster.migration.KeyMigration` install
        round covers all present pids before routing flips).
        """
        if key is None:
            raise ConfigError("cannot migrate the single-register sentinel key")
        if key in self.keys:
            return
        self.keys = (*self.keys, key)
        self._ctx.keys = self.keys

    # ------------------------------------------------------------------
    # Dynamicity
    # ------------------------------------------------------------------

    def spawn_joiner(self) -> str:
        """Admit a fresh process; it immediately starts its join.

        Returns the new identity.  The join operation is recorded in
        the history; when it completes, the membership flips the
        process to active (Definition 1).
        """
        pid = self._next_pid()
        node = self._node_class(pid, self._ctx)
        self.membership.enter(node)
        self.trace.record(self.engine.now, TraceKind.ENTER, pid)
        self.broadcast.offer_to_entrant(node)
        handle = node.join()
        self.history.record_operation(handle)

        def _on_join_done(h: OperationHandle) -> None:
            if h.done:
                self.membership.mark_active(pid, self.engine.now)
                self.trace.record(self.engine.now, TraceKind.ACTIVE, pid)

        handle.add_done_callback(_on_join_done)
        return pid

    def leave(self, pid: str) -> None:
        """Evict ``pid`` silently (leave and crash are the same event)."""
        process = self.membership.process(pid)
        if not process.present:
            raise ProcessError(f"{pid} already left the system")
        process.depart()
        self.membership.leave(pid, self.engine.now)
        self.history.record_departure(pid, self.engine.now)
        self.trace.record(self.engine.now, TraceKind.LEAVE, pid)

    def attach_churn(
        self,
        rate: float = 0.0,
        period: Time = 1.0,
        start: Time | None = None,
        protect_writer: bool = True,
        protected: tuple[str, ...] = (),
        min_stay: Time = 0.0,
        stop_at: Time | None = None,
        victim_policy: str = "uniform",
        profile: "RateProfile | None" = None,
    ) -> ChurnController:
        """Install the churn adversary (one controller per run).

        ``protect_writer`` keeps the designated writer in the system —
        the termination lemmas assume the invoking process does not
        leave; ``min_stay`` enforces the Section 5 hypothesis that a
        joiner stays at least that long.  Pass ``profile`` (see
        :mod:`repro.churn.profiles`) for a non-constant rate; ``rate``
        is then ignored.
        """
        if self._churn is not None:
            raise ConfigError("churn controller already attached")
        churn = ConstantChurn(
            rate=rate, n=self.config.n, period=period, start=start
        )
        shielded = set(protected)
        if protect_writer:
            shielded.add(self.writer_pid)
        controller = ChurnController(
            engine=self.engine,
            membership=self.membership,
            trace=self.trace,
            rng=self.rng,
            churn=churn,
            spawn=self.spawn_joiner,
            depart=self.leave,
            protected=shielded,
            min_stay=min_stay,
            stop_at=stop_at,
            victim_policy=victim_policy,
            profile=profile,
        )
        controller.install()
        self._churn = controller
        return controller

    @property
    def churn(self) -> ChurnController | None:
        return self._churn

    def install_faults(self, plan: FaultPlan) -> FaultInjector:
        """Install a fault plan (one injector per run).

        Crash faults are wired to :meth:`leave`, so an injected crash is
        indistinguishable from a churn departure in the history — the
        model equates the two (Section 2.1).  Crashes deliberately
        bypass churn's ``protect_writer`` shield: targeting the writer
        at a phase is exactly what the injections are for.
        """
        if self._faults is not None:
            raise ConfigError("fault plan already installed")
        injector = FaultInjector(
            plan,
            self.rng.stream("faults.injector"),
            crash_hook=self._fault_crash,
        )
        self.network.install_faults(injector)
        self._faults = injector
        return injector

    @property
    def faults(self) -> FaultInjector | None:
        return self._faults

    def _fault_crash(self, pid: str) -> None:
        """Crash-fault hook: a silent departure, skipped if already gone."""
        if pid in self.membership and self.membership.is_present(pid):
            self.leave(pid)

    # ------------------------------------------------------------------
    # Register operations
    # ------------------------------------------------------------------

    def read(self, pid: str, key: Any = None) -> OperationHandle:
        """Invoke a read of ``key`` at ``pid`` and record it in the
        history (``key=None`` addresses the default register)."""
        handle = self.node(pid).read(key)
        self.history.record_operation(handle)
        return handle

    def write(
        self,
        value: Any | None = None,
        pid: str | None = None,
        key: Any = None,
    ) -> OperationHandle:
        """Invoke a write (by the designated writer unless ``pid`` given).

        ``value=None`` draws the next unique value, keeping the history
        checkable (the checkers require distinct written values);
        ``key=None`` addresses the default register.
        """
        writer = pid if pid is not None else self.writer_pid
        if value is None:
            value = self.next_value()
        handle = self.node(writer).write(value, key)
        self.history.record_operation(handle)
        return handle

    # ------------------------------------------------------------------
    # Running and checking
    # ------------------------------------------------------------------

    def run_until(self, horizon: Time) -> None:
        """Advance simulated time to ``horizon``.

        Only the engine's owner may drive the clock: a shard of a
        cluster shares its scheduler with every sibling, so advancing
        it here would silently run the whole cluster — drive the
        :class:`~repro.cluster.system.ClusterSystem` instead.
        """
        self._require_engine_ownership()
        self.engine.run_until(horizon)

    def run_for(self, duration: Time) -> None:
        """Advance simulated time by ``duration`` (owner only, as
        :meth:`run_until`)."""
        self._require_engine_ownership()
        self.engine.run_until(self.engine.now + duration)

    def _require_engine_ownership(self) -> None:
        if not self.owns_engine:
            raise ConfigError(
                f"{self!r} shares its scheduler (shard {self.shard_id} of a "
                f"cluster); advancing it here would run every sibling shard "
                f"— drive the owning ClusterSystem instead"
            )

    def close(self) -> History:
        """Freeze the history at the current instant and return it."""
        if not self._closed:
            self.history.close(self.engine.now)
            self._closed = True
        return self.history

    def check_safety(
        self, check_joins: bool = True, paranoid: bool = False
    ) -> SafetyReport:
        """Judge regularity (Section 2.2 Safety) on the history so far.

        ``paranoid`` selects the brute-force reference checker instead
        of the default sub-quadratic sweep.
        """
        return RegularityChecker(
            self.history, check_joins=check_joins, paranoid=paranoid
        ).check()

    def check_atomicity(self, paranoid: bool = False) -> AtomicityReport:
        """Judge atomicity — regularity plus absence of new/old inversions."""
        return find_new_old_inversions(self.history, paranoid=paranoid)

    def check_liveness(self, grace: Time | None = None) -> LivenessReport:
        """Judge liveness on the *closed* history.

        ``grace`` defaults to ``3δ`` — the synchronous protocol's
        worst-case operation latency; pass a larger value for runs that
        end while quorum protocols are legitimately still collecting.
        """
        self.close()
        if grace is None:
            grace = 3.0 * self.config.delta
        return LivenessChecker(self.history, grace=grace).check()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSystem(protocol={self.config.protocol!r}, "
            f"n={self.config.n}, t={self.engine.now!r}, "
            f"present={len(self.membership)})"
        )
