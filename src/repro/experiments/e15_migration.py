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
from ..exec.runner import run_specs
from ..exec.spec import RunSpec
from ..faults.plan import FaultPlan, LossFault
from ..protocols.common import MIGRATION_PAYLOADS
from ..workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
from ..workloads.explorer import schedule_round_robin_migrations
from ..workloads.generators import assign_keys, read_heavy_plan
from .harness import ExperimentResult

#: Churn rates swept by default (0 isolates the handoff itself).
DEFAULT_CHURN_RATES = (0.0, 0.02, 0.04)


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
    """One cell: migrate keys mid-run, close, judge, measure."""
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
    driver = ClusterWorkloadDriver(cluster, dynamic=True)
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 4.0 * delta,
        write_period=write_period,
        read_rate=read_rate,
        rng=cluster.rng.stream("e15.plan"),
    )
    plan = assign_keys(
        plan,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream("e15.skew"), distribution="uniform"
        ),
    )
    driver.install(plan)
    cluster.run_until(horizon)
    cluster.close()
    safety = cluster.check_safety()
    latencies = [r.latency for r in records if r.committed]
    return {
        "committed": sum(1 for r in records if r.committed),
        "aborted": sum(1 for r in records if r.aborted),
        "unresolved": sum(1 for r in records if not r.finished),
        "mean_latency": (sum(latencies) / len(latencies)) if latencies else 0.0,
        "max_latency": max(latencies) if latencies else 0.0,
        "writes_deferred": driver.stats.writes_deferred + sum(
            r.deferred_writes for r in records
        ),
        "writes_dropped": cluster.writes_dropped,
        "violations": safety.violation_count,
        "checked": safety.checked_count,
        "reads_issued": driver.stats.reads_issued,
        "writes_issued": driver.stats.writes_issued,
        "map_version": cluster.map_version,
    }


def run(
    seed: int = 0,
    quick: bool = False,
    n: int = 18,
    delta: float = 5.0,
    keys: int = 6,
    shards: int = 3,
    churn_rates: tuple[float, ...] = DEFAULT_CHURN_RATES,
    migrations: int = 3,
    workers: int | None = None,
) -> ExperimentResult:
    """Sweep churn × coordination-loss over live migrations."""
    horizon = 120.0 if quick else 240.0
    if quick:
        churn_rates = tuple(churn_rates[:2]) or (0.0,)
    result = ExperimentResult(
        experiment_id="E15",
        title="Live resharding — crash-safe key handoff under churn",
        paper_claim=(
            "keys migrate between quorum shards during the run without "
            "breaking per-key regularity: every handoff commits or aborts "
            "cleanly (never a stuck freeze, never two owners), deferred "
            "writes drain after the flip, and losing all coordination "
            "traffic only forces clean aborts, never violations"
        ),
        params={
            "n": n,
            "delta": delta,
            "keys": keys,
            "shards": shards,
            "churn_rates": churn_rates,
            "migrations": migrations,
            "seed": seed,
        },
    )
    specs = [
        RunSpec(
            kind="e15",
            params=dict(
                seed=seed,
                shards=shards,
                n=n,
                delta=delta,
                keys=keys,
                horizon=horizon,
                churn_rate=churn_rate,
                migrations=migrations,
                lose_migration_msgs=lose,
                read_rate=0.6,
                write_period=2.0 * delta,
            ),
            label=f"e15:c={churn_rate:g}{' mig-loss' if lose else ''}",
        )
        for lose in (False, True)
        for churn_rate in churn_rates
    ]
    cells = run_specs(specs, workers=workers)
    all_regular = True
    all_resolved = True
    storm_all_aborted = True
    for spec, data in zip(specs, cells):
        churn_rate = spec.params["churn_rate"]
        lose = spec.params["lose_migration_msgs"]
        if data["violations"]:
            all_regular = False
        if data["unresolved"]:
            all_resolved = False
        if lose and data["committed"]:
            storm_all_aborted = False
        result.add_row(
            churn=churn_rate,
            plan="mig-loss" if lose else "none",
            committed=data["committed"],
            aborted=data["aborted"],
            unresolved=data["unresolved"],
            mean_latency=round(data["mean_latency"], 2),
            max_latency=round(data["max_latency"], 2),
            deferred=data["writes_deferred"],
            dropped=data["writes_dropped"],
            checked=data["checked"],
            violations=data["violations"],
        )
    result.notes.append(
        "latency is flip-commit minus handoff start (freeze through "
        "install); it bounds the write stall a migrating key's clients "
        "see, since frozen-window writes defer and drain at the flip"
    )
    result.notes.append(
        "mig-loss rows lose every MigFetch/MigFetchReply/MigInstall/"
        "MigAck message: the handoff can never finish, so the protocol "
        "must time out and abort with the source still owning the key — "
        "coordination loss is in-model for the register itself"
    )
    result.notes.append(
        "dropped counts deferred writes whose owning shard lost its "
        "write agent to churn before the drain — ordinary departures, "
        "not migration casualties"
    )
    if all_regular and all_resolved and storm_all_aborted:
        result.verdict = (
            "REPRODUCED: every handoff resolved (commit or clean abort), "
            "per-key regularity held across every seam at every churn "
            "rate, and total coordination loss only forced clean aborts"
        )
    elif not all_resolved:
        result.verdict = (
            "NOT REPRODUCED: a migration was still mid-phase at the "
            "horizon (stuck handoff)"
        )
    elif not storm_all_aborted:
        result.verdict = (
            "NOT REPRODUCED: a handoff claimed to commit although every "
            "coordination message was lost"
        )
    else:
        result.verdict = (
            "NOT REPRODUCED: a migrated run violated per-key regularity"
        )
    return result
