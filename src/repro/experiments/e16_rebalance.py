"""E16 — policy-driven rebalancing: imbalance reduction vs handoff cost.

Not a figure of the paper but the claim PR 7's rebalancer makes, made
falsifiable: under Zipf hot-shard skew (the production failure shape a
static key map cannot survive), a load-watching rebalancer planning
budget-bounded storms of concurrent key migrations must

* **reduce imbalance** — the max/mean per-shard operation load of the
  rebalanced run must come in below the identically-seeded static run
  at every churn rate;
* **pay a bounded, amortized cost** — handoffs are not free (freeze
  windows, copy/install rounds, deferred-write drains); the cell
  reports the extra delivered messages per committed handoff so the
  trade is a number, not a vibe;
* **never lie** — per-key regularity must hold across every seam the
  rebalancer creates, and every planned migration must resolve (commit
  or clean abort) before the horizon: a record still mid-phase is a
  stuck handoff, the crash-safety claim failing under policy-driven
  concurrency.

Cells come in identically-seeded pairs (rebalancer off/on): same
population, same churn schedule, same Zipf-skewed operation plan —
the rebalancer is the only difference, so the imbalance delta is
attributable.
"""

from __future__ import annotations

from typing import Any

from ..cluster.config import ClusterConfig
from ..cluster.rebalance import RebalancePolicy, Rebalancer
from ..cluster.system import ClusterSystem
from ..exec.runner import run_specs
from ..exec.spec import RunSpec
from ..workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
from ..workloads.generators import assign_keys, read_heavy_plan
from .harness import ExperimentResult

#: Churn rates swept by default (0 isolates the policy itself).
DEFAULT_CHURN_RATES = (0.0, 0.02, 0.04)

#: Planning stops this many delta before the horizon: the worst-case
#: timeout ladder of one handoff (freeze 3delta + copy and install at
#: 3delta * (1 + 1.5) each, max_retries=1) is 18delta, so every storm
#: planned by the cutoff resolves — commit or clean abort — in-run.
PLAN_MARGIN_DELTAS = 18.0


def cell(
    seed: int,
    shards: int,
    n: int,
    delta: float,
    keys: int,
    horizon: float,
    churn_rate: float,
    rebalance: int,
    read_rate: float,
    write_period: float,
) -> dict[str, Any]:
    """One arm: Zipf-skewed cluster, rebalancer on (budget) or off (0)."""
    config = ClusterConfig(
        shards=shards, keys=keys, n=n, delta=delta, protocol="sync", seed=seed
    )
    cluster = ClusterSystem(config)
    if churn_rate > 0:
        cluster.attach_churn(rate=churn_rate, min_stay=3.0 * delta)
    driver = ClusterWorkloadDriver(cluster)
    rebalancer = None
    if rebalance:
        rebalancer = Rebalancer(
            cluster,
            driver=driver,
            policy=RebalancePolicy(
                period=4.0 * delta,
                threshold=1.25,
                budget=rebalance,
                max_retries=1,
                plan_until=horizon - PLAN_MARGIN_DELTAS * delta,
            ),
        )
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 4.0 * delta,
        write_period=write_period,
        read_rate=read_rate,
        rng=cluster.rng.stream("e16.plan"),
    )
    plan = assign_keys(
        plan,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream("e16.skew"), distribution="zipf"
        ),
    )
    driver.install(plan)
    cluster.run_until(horizon)
    cluster.close()
    safety = cluster.check_safety()
    records = cluster.migration_records()
    ops = driver.shard_op_counts()
    data = {
        "shard_ops": list(ops),
        "imbalance": Rebalancer.imbalance_of(ops),
        "delivered": cluster.delivered_count,
        "committed": sum(1 for r in records if r.committed),
        "aborted": sum(1 for r in records if r.aborted),
        "unresolved": sum(1 for r in records if not r.finished),
        "planned": len(records),
        "violations": safety.violation_count,
        "checked": safety.checked_count,
        "writes_deferred": cluster.writes_deferred,
        "writes_dropped": cluster.writes_dropped,
        "map_version": cluster.map_version,
        "rebalance_digest": rebalancer.digest() if rebalancer else "",
    }
    return data


def run(
    seed: int = 0,
    quick: bool = False,
    n: int = 24,
    delta: float = 5.0,
    keys: int = 8,
    shards: int = 4,
    churn_rates: tuple[float, ...] = DEFAULT_CHURN_RATES,
    budget: int = 2,
    workers: int | None = None,
) -> ExperimentResult:
    """Paired sweep (rebalancer off/on) over churn under Zipf skew."""
    horizon = 200.0 if quick else 320.0
    if quick:
        churn_rates = tuple(churn_rates[:2]) or (0.0,)
    result = ExperimentResult(
        experiment_id="E16",
        title="Policy-driven rebalancing — imbalance vs amortized handoff cost",
        paper_claim=(
            "a load-watching rebalancer planning budget-bounded storms of "
            "concurrent key migrations reduces max/mean per-shard load "
            "imbalance under Zipf hot-shard skew at an amortized, reported "
            "handoff cost, while per-key regularity holds across every "
            "seam and every planned handoff resolves before the horizon"
        ),
        params={
            "n": n,
            "delta": delta,
            "keys": keys,
            "shards": shards,
            "churn_rates": churn_rates,
            "budget": budget,
            "seed": seed,
        },
    )
    specs = [
        RunSpec(
            kind="e16",
            params=dict(
                seed=seed,
                shards=shards,
                n=n,
                delta=delta,
                keys=keys,
                horizon=horizon,
                churn_rate=churn_rate,
                rebalance=rebalance,
                read_rate=0.6,
                write_period=2.0 * delta,
            ),
            label=f"e16:c={churn_rate:g} rebal={rebalance}",
        )
        for churn_rate in churn_rates
        for rebalance in (0, budget)
    ]
    cells = run_specs(specs, workers=workers)
    paired = {
        (spec.params["churn_rate"], spec.params["rebalance"]): data
        for spec, data in zip(specs, cells)
    }
    all_regular = True
    all_resolved = True
    always_reduced = True
    reductions = []
    for churn_rate in churn_rates:
        off = paired[(churn_rate, 0)]
        on = paired[(churn_rate, budget)]
        for data in (off, on):
            if data["violations"]:
                all_regular = False
            if data["unresolved"]:
                all_resolved = False
        reduction = off["imbalance"] - on["imbalance"]
        reductions.append(reduction)
        if reduction <= 0:
            always_reduced = False
        committed = on["committed"]
        cost = (
            (on["delivered"] - off["delivered"]) / committed
            if committed
            else 0.0
        )
        result.add_row(
            churn=churn_rate,
            imbalance_static=round(off["imbalance"], 3),
            imbalance_rebalanced=round(on["imbalance"], 3),
            reduction=round(reduction, 3),
            planned=on["planned"],
            committed=committed,
            aborted=on["aborted"],
            unresolved=on["unresolved"],
            delivered_static=off["delivered"],
            delivered_rebalanced=on["delivered"],
            cost_per_commit=round(cost, 1),
            violations=off["violations"] + on["violations"],
        )
    result.notes.append(
        "each churn rate is an identically-seeded pair: same population, "
        "same churn schedule, same Zipf-skewed plan — the rebalancer "
        "(period 4delta, threshold 1.25 max/mean, budget "
        f"{budget}/window, one retry per phase) is the only difference"
    )
    result.notes.append(
        "imbalance is max/mean cumulative per-shard issued operations; "
        "cost_per_commit is the extra delivered messages per committed "
        "handoff — the amortized price of the imbalance reduction"
    )
    result.notes.append(
        "planning stops 18delta before the horizon (the worst-case "
        "timeout ladder of one handoff), so every storm the policy "
        "plans must resolve in-run — unresolved > 0 refutes crash-safety "
        "under policy-driven concurrency"
    )
    if all_regular and all_resolved and always_reduced:
        mean_reduction = sum(reductions) / len(reductions)
        result.verdict = (
            "REPRODUCED: the rebalancer reduced max/mean shard-load "
            f"imbalance at every churn rate (mean reduction "
            f"{mean_reduction:.2f}), every planned handoff resolved, and "
            "per-key regularity held across every rebalancer-made seam"
        )
    elif not all_regular:
        result.verdict = (
            "NOT REPRODUCED: a rebalanced run violated per-key regularity"
        )
    elif not all_resolved:
        result.verdict = (
            "NOT REPRODUCED: a policy-planned migration was still "
            "mid-phase at the horizon (stuck handoff)"
        )
    else:
        result.verdict = (
            "NOT REPRODUCED: the rebalancer failed to reduce load "
            "imbalance under Zipf skew"
        )
    return result
