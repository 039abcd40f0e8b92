"""Policy-driven rebalancing: *when* to move keys, on live migration.

PR 6 built the mechanism — :class:`~repro.cluster.migration.KeyMigration`
moves one key between shards crash-safely while the cluster serves
traffic.  This module adds the missing *policy*: a :class:`Rebalancer`
that runs on the shared cluster clock, samples per-shard load on a
configurable period, and past an imbalance threshold plans a **batch**
of :meth:`~repro.cluster.system.ClusterSystem.schedule_migration` calls
— greedy hottest-key-to-coldest-shard moves, bounded by a per-window
migration budget and a post-batch cooldown.  Storms of *concurrent*
cross-key migrations (serialized per key, concurrent across keys) are
the normal operating mode here, not an accident.

Load signals (:attr:`RebalancePolicy.load`):

* ``"ops"`` — issued operations per shard from the dynamic
  :meth:`~repro.workloads.cluster.ClusterWorkloadDriver.shard_op_counts`
  (plus per-key counts for greedy key selection);
* ``"delivered"`` — delivered protocol messages per shard from each
  shard's network, usable without a workload driver (per-key load is
  then estimated as an equal share of the shard's window load).

Each sampling tick computes the **window** load (cumulative minus the
previous snapshot) and the imbalance metric ``max/mean`` over shards.
Above :attr:`RebalancePolicy.threshold` the planner repeatedly takes
the hottest eligible key off the hottest shard and sends it to the
coldest non-retired shard, updating a working copy of the loads after
every pick, until the working imbalance falls back under the threshold
or the window budget runs out.  All planned handoffs in a batch start
at the *same instant* — a genuine concurrent storm, serialized only by
the per-key freeze.

:meth:`Rebalancer.retire_shard` is the scale-down mode: the shard is
excluded as a destination forever and every key it owns is migrated
off, budget-bounded per window, round-robin over the coldest remaining
shards — so ``shards`` effectively shrinks on a running cluster.

Determinism: the rebalancer draws **no randomness** — ties break by
shard index and key order, ticks are fixed multiples of the period —
so a rebalanced run replays byte-identically under a fixed seed, and
:meth:`Rebalancer.digest` hashes the full sample/action/outcome log as
a drift tripwire.  A cluster that never constructs a ``Rebalancer`` is
untouched: nothing here runs unless instantiated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Any, TYPE_CHECKING

from ..sim.clock import Time
from ..sim.errors import ConfigError
from ..sim.events import Priority
from .migration import MigrationRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.cluster import ClusterWorkloadDriver
    from .system import ClusterSystem

#: Valid :attr:`RebalancePolicy.load` signals.
LOAD_SIGNALS = ("ops", "delivered")


@dataclass(frozen=True)
class RebalancePolicy:
    """The knobs deciding when and how much to rebalance.

    ``period``
        Sampling interval on the cluster clock; the first tick fires
        one period after construction.
    ``threshold``
        Imbalance trigger, as ``max/mean`` window shard load.  ``1.0``
        is perfectly balanced; the default ``1.5`` tolerates moderate
        skew before paying handoff traffic.
    ``budget``
        Maximum migrations planned per sampling window — the storm
        size cap.  Retirement drains share the same budget.
    ``cooldown``
        Extra wait after a planned batch before imbalance may trigger
        again (retirement drains ignore it: a retiring shard must
        empty).  Keeps the planner from chasing its own handoff
        traffic.
    ``load``
        Shard-load signal: ``"ops"`` (workload driver issued-op
        counts; requires a dynamic driver) or ``"delivered"``
        (per-shard delivered protocol messages; driver optional).
    ``min_window_load``
        Windows whose total load delta is below this are never acted
        on — an idle cluster is not "imbalanced".
    ``max_retries``
        Passed through to every planned
        :class:`~repro.cluster.migration.MigrationSpec`.
    ``plan_until``
        Last instant at which new migrations may be planned (``None``
        = forever).  Bounded runs set this a comfortable margin before
        the horizon — the handoff timeout ladder is bounded, so every
        storm planned by then resolves (commit or clean abort) before
        the run ends.  Sampling continues past it; only planning
        stops, retirement drains included.
    """

    period: Time = 20.0
    threshold: float = 1.5
    budget: int = 2
    cooldown: Time = 0.0
    load: str = "ops"
    min_window_load: int = 1
    max_retries: int = 2
    plan_until: Time | None = None

    def validate(self) -> None:
        # NaN compares false with everything, so the range tests below
        # would wave it through: a NaN period never ticks, a NaN
        # threshold never triggers — silently.  Refuse it by name.
        for name in (
            "period", "threshold", "cooldown", "min_window_load", "plan_until"
        ):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ConfigError(f"rebalance {name} must be finite, got {value!r}")
        if self.period <= 0:
            raise ConfigError(f"rebalance period must be positive, got {self.period!r}")
        if self.threshold < 1.0:
            raise ConfigError(
                f"imbalance threshold is max/mean and cannot be below 1.0, "
                f"got {self.threshold!r}"
            )
        if self.budget < 1:
            raise ConfigError(f"migration budget must be >= 1, got {self.budget!r}")
        if self.cooldown < 0:
            raise ConfigError(f"cooldown cannot be negative, got {self.cooldown!r}")
        if self.load not in LOAD_SIGNALS:
            raise ConfigError(
                f"unknown load signal {self.load!r}; choose from {list(LOAD_SIGNALS)}"
            )
        if self.min_window_load < 0:
            raise ConfigError(
                f"min_window_load cannot be negative, got {self.min_window_load!r}"
            )


@dataclass(frozen=True)
class RebalanceSample:
    """One sampling tick: the window loads and what the planner did."""

    time: Time
    loads: tuple[int, ...]
    imbalance: float
    triggered: bool
    planned: int
    note: str = ""


@dataclass(frozen=True)
class RebalanceAction:
    """One planned handoff and the record that will carry its outcome."""

    time: Time
    key: Any
    source: int
    dest: int
    load: float
    reason: str  # "imbalance" | "retire"
    record: MigrationRecord = field(compare=False)


class Rebalancer:
    """Watches per-shard load and plans batches of key handoffs.

    Construct *before* the run starts (it arms the cluster's elastic
    front door, so every write of the run shares the serializing path
    with the handoffs that may follow) on a named multi-key cluster::

        cluster = ClusterSystem(ClusterConfig(shards=4, keys=8, n=40))
        driver = ClusterWorkloadDriver(cluster, dynamic=True)
        rebal = Rebalancer(cluster, driver=driver,
                           policy=RebalancePolicy(period=15.0, budget=3))
        driver.install(plan)
        cluster.run_until(horizon)

    ``driver`` is required for the ``"ops"`` load signal and optional
    for ``"delivered"``.  Everything observable lands in
    :attr:`samples` (every tick) and :attr:`actions` (every planned
    migration, with its live :class:`MigrationRecord`).
    """

    def __init__(
        self,
        cluster: "ClusterSystem",
        driver: "ClusterWorkloadDriver | None" = None,
        policy: RebalancePolicy | None = None,
    ) -> None:
        self.policy = policy or RebalancePolicy()
        self.policy.validate()
        if driver is not None and not driver.dynamic:
            raise ConfigError(
                "the rebalancer needs a dynamic cluster driver "
                "(static drivers route at install time and cannot follow flips)"
            )
        if self.policy.load == "ops" and driver is None:
            raise ConfigError(
                'load signal "ops" needs a dynamic ClusterWorkloadDriver; '
                'pass one, or use load="delivered"'
            )
        self.cluster = cluster
        self.driver = driver
        cluster.enable_elastic()
        self.samples: list[RebalanceSample] = []
        self.actions: list[RebalanceAction] = []
        self._retired: set[int] = set()
        self._in_flight: dict[Any, MigrationRecord] = {}
        self._last_loads = self._cumulative_loads()
        self._last_key_loads = self._cumulative_key_loads()
        self._cooldown_until: Time = cluster.now
        self._arm_tick()

    # ------------------------------------------------------------------
    # Load signals
    # ------------------------------------------------------------------

    def _cumulative_loads(self) -> tuple[int, ...]:
        if self.policy.load == "ops":
            assert self.driver is not None
            return self.driver.shard_op_counts()
        return tuple(
            shard.network.delivered_count for shard in self.cluster.shards
        )

    def _cumulative_key_loads(self) -> dict[Any, int]:
        if self.driver is None:
            return {}
        return self.driver.key_op_counts()

    @staticmethod
    def imbalance_of(loads: tuple[int, ...] | list[float]) -> float:
        """``max/mean`` shard load; 1.0 (perfectly balanced) when idle."""
        total = sum(loads)
        if not loads or total <= 0:
            return 1.0
        return max(loads) / (total / len(loads))

    # ------------------------------------------------------------------
    # The sampling tick
    # ------------------------------------------------------------------

    def _arm_tick(self) -> None:
        self.cluster.engine.schedule(
            self.policy.period, self._tick,
            priority=Priority.TIMER, label="rebalance tick",
        )

    def _tick(self) -> None:
        now = self.cluster.now
        cumulative = self._cumulative_loads()
        window = tuple(
            new - old for new, old in zip(cumulative, self._last_loads)
        )
        self._last_loads = cumulative
        key_cumulative = self._cumulative_key_loads()
        key_window = {
            key: count - self._last_key_loads.get(key, 0)
            for key, count in key_cumulative.items()
        }
        self._last_key_loads = key_cumulative
        self._forget_finished()

        imbalance = self.imbalance_of(window)
        retiring = any(
            self._eligible_keys(shard) for shard in sorted(self._retired)
        )
        note = ""
        planned = 0
        if self.policy.plan_until is not None and now > self.policy.plan_until:
            note = "quiesced"
        elif sum(window) < self.policy.min_window_load and not retiring:
            note = "idle"
        elif now < self._cooldown_until and not retiring:
            note = "cooldown"
        elif imbalance > self.policy.threshold or retiring:
            planned = self._plan_batch(now, window, key_window)
            if planned and self.policy.cooldown > 0:
                self._cooldown_until = now + self.policy.cooldown
        self.samples.append(
            RebalanceSample(
                time=now, loads=window, imbalance=imbalance,
                triggered=planned > 0, planned=planned, note=note,
            )
        )
        self._arm_tick()

    def _forget_finished(self) -> None:
        for key in [k for k, rec in self._in_flight.items() if rec.finished]:
            del self._in_flight[key]

    # ------------------------------------------------------------------
    # Greedy batch planning
    # ------------------------------------------------------------------

    def _plan_batch(
        self,
        now: Time,
        window: tuple[int, ...],
        key_window: dict[Any, int],
    ) -> int:
        """Plan up to ``budget`` moves against a working copy of loads."""
        working = [float(load) for load in window]
        chosen: set[Any] = set()
        planned = 0
        for _ in range(self.policy.budget):
            move = self._pick_retire_move(working, key_window, chosen)
            if move is None:
                if self.imbalance_of(working) <= self.policy.threshold:
                    break
                move = self._pick_imbalance_move(working, key_window, chosen)
            if move is None:
                break
            key, source, dest, load = move
            record = self.cluster.schedule_migration(
                key, dest, at=now, max_retries=self.policy.max_retries
            )
            self._in_flight[key] = record
            chosen.add(key)
            self.actions.append(
                RebalanceAction(
                    time=now, key=key, source=source, dest=dest, load=load,
                    reason="retire" if source in self._retired else "imbalance",
                    record=record,
                )
            )
            working[source] -= load
            # Charge the destination at least one unit so ties rotate:
            # draining an idle shard round-robins instead of piling
            # every key onto the lowest-indexed cold shard.
            working[dest] += max(load, 1.0)
            planned += 1
        return planned

    def _eligible_keys(self, shard: int) -> list[Any]:
        """Keys of ``shard`` a new migration may touch right now."""
        return [
            key
            for key in self.cluster.keys_of_shard(shard)
            if not self.cluster.is_frozen(key) and key not in self._in_flight
        ]

    def _key_load(
        self, key: Any, shard: int, working: list[float],
        key_window: dict[Any, int],
    ) -> float:
        if key_window:
            return float(key_window.get(key, 0))
        owned = len(self.cluster.keys_of_shard(shard))
        return working[shard] / owned if owned else 0.0

    def _hottest_key(
        self, shard: int, working: list[float],
        key_window: dict[Any, int], chosen: set[Any],
    ) -> tuple[Any, float] | None:
        best: tuple[Any, float] | None = None
        for key in self._eligible_keys(shard):
            if key in chosen:
                continue
            load = self._key_load(key, shard, working, key_window)
            if best is None or load > best[1]:
                best = (key, load)
        return best

    def _coldest_dest(self, working: list[float], exclude: int) -> int | None:
        best: int | None = None
        for shard in range(len(working)):
            if shard == exclude or shard in self._retired:
                continue
            if best is None or working[shard] < working[best]:
                best = shard
        return best

    def _pick_retire_move(
        self, working: list[float], key_window: dict[Any, int],
        chosen: set[Any],
    ) -> tuple[Any, int, int, float] | None:
        for shard in sorted(self._retired):
            pick = self._hottest_key(shard, working, key_window, chosen)
            if pick is None:
                continue
            dest = self._coldest_dest(working, exclude=shard)
            if dest is None:
                return None
            key, load = pick
            return key, shard, dest, load
        return None

    def _pick_imbalance_move(
        self, working: list[float], key_window: dict[Any, int],
        chosen: set[Any],
    ) -> tuple[Any, int, int, float] | None:
        # Hottest shard first; ties break low-index, matching the
        # hot-shard rank convention of shard_skewed_key_picker.
        by_heat = sorted(
            range(len(working)), key=lambda shard: (-working[shard], shard)
        )
        for source in by_heat:
            if source in self._retired:
                continue
            pick = self._hottest_key(source, working, key_window, chosen)
            if pick is None:
                continue
            dest = self._coldest_dest(working, exclude=source)
            if dest is None or working[source] <= working[dest]:
                return None
            key, load = pick
            if load <= 0:
                # The shard is hot but this window's heat is not
                # attributable to any movable key; moving one would be
                # cargo cult.
                return None
            return key, source, dest, load
        return None

    # ------------------------------------------------------------------
    # Retirement (scale-down)
    # ------------------------------------------------------------------

    def retire_shard(self, shard: int) -> None:
        """Drain ``shard``: migrate every key off, never route new ones to it.

        Budget-bounded per window like any other batch, so a retiring
        shard empties over the following ticks; once empty it simply
        stops appearing in plans.  Retiring every shard is refused —
        the keys need somewhere to live.
        """
        if not 0 <= shard < len(self.cluster.shards):
            raise ConfigError(
                f"shard index {shard} out of range [0, {len(self.cluster.shards)})"
            )
        if len(self._retired | {shard}) >= len(self.cluster.shards):
            raise ConfigError("cannot retire every shard in the cluster")
        self._retired.add(shard)

    @property
    def retired(self) -> frozenset[int]:
        return frozenset(self._retired)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """The run's rebalancing story, condensed for experiment rows."""
        records = [action.record for action in self.actions]
        imbalances = [s.imbalance for s in self.samples]
        return {
            "samples": len(self.samples),
            "planned": len(self.actions),
            "committed": sum(1 for r in records if r.committed),
            "aborted": sum(1 for r in records if r.aborted),
            "unresolved": sum(1 for r in records if not r.finished),
            "peak_imbalance": max(imbalances, default=1.0),
            "final_imbalance": imbalances[-1] if imbalances else 1.0,
            "retired": sorted(self._retired),
        }

    def digest(self) -> str:
        """SHA-256 over the full sample/action/outcome log.

        The rebalancer's determinism tripwire: same cluster, same
        policy, same seed ⇒ same digest, byte for byte.
        """
        payload = {
            "samples": [
                [s.time, list(s.loads), s.imbalance, s.triggered, s.planned, s.note]
                for s in self.samples
            ],
            "actions": [
                [a.time, str(a.key), a.source, a.dest, a.load, a.reason]
                for a in self.actions
            ],
            "records": [a.record.to_dict() for a in self.actions],
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Rebalancer(load={self.policy.load!r}, "
            f"period={self.policy.period!r}, planned={len(self.actions)})"
        )
