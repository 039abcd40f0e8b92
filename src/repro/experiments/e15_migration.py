"""E15 — live resharding: crash-safe handoff under churn.

Not a figure of the paper but the robustness claim PR 6's migration
protocol makes, made falsifiable: move keys between the paper's quorum
shards *while* the workload runs and churn refreshes every shard, and
measure what the handoff costs and whether it ever lies:

* **Resolution** — every scheduled migration must finish as exactly one
  of committed or cleanly aborted; a record still mid-phase at the
  horizon is a stuck handoff (the crash-safety claim failing).
* **Safety across the seam** — a migrated key's history spans two
  shards, split at the flip; the merged cluster checkers judge it
  across that seam, and it must stay regular at every churn rate.
* **Availability** — writes arriving during a freeze are deferred, not
  lost; the freeze window (handoff latency) bounds the write stall,
  and every deferred write drains once the key unfreezes (writes are
  only dropped when churn removes the owning shard's write agent —
  an ordinary departure, counted separately).
* **Coordination loss** — a cell that loses *every* migration message
  (the ``mig-loss`` storm plan) must time out and abort every handoff
  with the source still serving: losing coordination traffic is
  in-model for the register, so safety has no excuse to fail.

Every cell runs the same root seed; churn rate and the storm plan are
the only variables.
"""

from __future__ import annotations

from typing import Any

from ..cluster.config import ClusterConfig
from ..cluster.system import ClusterSystem
from ..exec.spec import RunSpec
from ..faults.plan import FaultPlan, LossFault
from ..protocols.common import MIGRATION_PAYLOADS
from ..workloads.cluster import (
    schedule_round_robin_migrations,
    shard_skewed_key_picker,
)
from ..workloads.generators import drive_read_heavy
from ..workloads.schedule import WorkloadDriver
from .harness import Experiment, Judgement

N = 18
DELTA = 5.0
KEYS = 6
SHARDS = 3
MIGRATIONS = 3
#: Churn rates swept (0 isolates the handoff itself).
CHURN_RATES = (0.0, 0.02, 0.04)


def cell(
    seed: int,
    shards: int,
    n: int,
    delta: float,
    keys: int,
    horizon: float,
    churn_rate: float,
    migrations: int,
    lose_migration_msgs: bool,
    read_rate: float,
    write_period: float,
) -> dict[str, Any]:
    """One cell: migrate keys mid-run, close, judge; its table row."""
    config = ClusterConfig(
        shards=shards, keys=keys, n=n, delta=delta, protocol="sync", seed=seed
    )
    cluster = ClusterSystem(config)
    if lose_migration_msgs:
        cluster.install_faults(
            FaultPlan.of(
                LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS),
                name="mig-loss",
            ),
            scope_pids=False,
        )
    if churn_rate > 0:
        cluster.attach_churn(rate=churn_rate, min_stay=3.0 * delta)
    records = schedule_round_robin_migrations(cluster, migrations, horizon)
    driver = WorkloadDriver(cluster)
    pick_key = shard_skewed_key_picker(
        cluster, cluster.rng.stream("e15.skew"), "uniform"
    )
    drive_read_heavy(
        cluster, driver, horizon, horizon - 4.0 * delta, write_period, read_rate,
        "e15.plan", pick_key,
    )
    safety = cluster.check_safety()
    latencies = [r.latency for r in records if r.committed]
    return dict(
        churn=churn_rate,
        plan="mig-loss" if lose_migration_msgs else "none",
        committed=sum(1 for r in records if r.committed),
        aborted=sum(1 for r in records if r.aborted),
        unresolved=sum(1 for r in records if not r.finished),
        mean_latency=round(sum(latencies) / len(latencies), 2) if latencies else 0.0,
        max_latency=round(max(latencies), 2) if latencies else 0.0,
        deferred=driver.stats.writes_deferred
        + sum(r.deferred_writes for r in records),
        dropped=cluster.writes_dropped,
        checked=safety.checked_count,
        violations=safety.violation_count,
    )


def _grid(p: dict[str, Any], quick: bool) -> list[RunSpec]:
    fixed = dict(
        seed=p["seed"], shards=SHARDS, n=N, delta=DELTA, keys=KEYS,
        horizon=120.0 if quick else 240.0, migrations=MIGRATIONS, read_rate=0.6,
        write_period=2.0 * DELTA,
    )
    return [
        RunSpec(
            kind=f"{__name__}:cell",
            params=dict(churn_rate=c, lose_migration_msgs=lose, **fixed),
            label=f"e15:c={c:g}{' mig-loss' if lose else ''}",
        )
        for lose in (False, True)
        for c in p["churn_rates"]
    ]


def _judge(p: dict[str, Any], quick: bool, rows: list[Any]) -> Judgement:
    notes = [
        "latency is flip-commit minus handoff start (freeze through "
        "install); it bounds the write stall a migrating key's clients "
        "see, since frozen-window writes defer and drain at the flip",
        "mig-loss rows lose every MigFetch/MigFetchReply/MigInstall/"
        "MigAck message: the handoff can never finish, so the protocol "
        "must time out and abort with the source still owning the key — "
        "coordination loss is in-model for the register itself",
        "dropped counts deferred writes whose owning shard lost its "
        "write agent to churn before the drain — ordinary departures, "
        "not migration casualties",
    ]
    all_regular = not any(row["violations"] for row in rows)
    all_resolved = not any(row["unresolved"] for row in rows)
    storm_all_aborted = not any(
        row["committed"] for row in rows if row["plan"] == "mig-loss"
    )
    if all_regular and all_resolved and storm_all_aborted:
        verdict = (
            "REPRODUCED: every handoff resolved (commit or clean abort), "
            "per-key regularity held across every seam at every churn "
            "rate, and total coordination loss only forced clean aborts"
        )
    elif not all_resolved:
        verdict = (
            "NOT REPRODUCED: a migration was still mid-phase at the "
            "horizon (stuck handoff)"
        )
    elif not storm_all_aborted:
        verdict = (
            "NOT REPRODUCED: a handoff claimed to commit although every "
            "coordination message was lost"
        )
    else:
        verdict = "NOT REPRODUCED: a migrated run violated per-key regularity"
    return rows, notes, verdict


#: Churn × coordination loss over live migrations; quick mode keeps the
#: first two churn rates.
EXPERIMENT = Experiment(
    id="E15",
    title="Live resharding — crash-safe key handoff under churn",
    claim=(
        "keys migrate between quorum shards during the run without "
        "breaking per-key regularity: every handoff commits or aborts "
        "cleanly (never a stuck freeze, never two owners), deferred "
        "writes drain after the flip, and losing all coordination "
        "traffic only forces clean aborts, never violations"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, keys=KEYS, shards=SHARDS,
        churn_rates=CHURN_RATES[:2] if quick else CHURN_RATES,
        migrations=MIGRATIONS, seed=seed,
    ),
    grid=_grid,
    judge=_judge,
)
