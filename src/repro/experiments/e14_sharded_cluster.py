"""E14 — sharded cluster scaling: per-node load falls with the shard count.

Not a figure of the paper but the ROADMAP's scale lever made
measurable: partition the keyed store across ``S`` independent quorum
shards (each a full instance of the paper's machinery — own churn,
own network, own quorums) at **fixed total population**, and measure
what every node stops paying:

* **Per-node delivered-message load** — a write dissemination or a
  joiner's inquiry round only reaches the owning shard's ``n/S``
  processes, so total delivered messages (and hence load per node of
  the fixed population) must fall monotonically as ``S`` grows.
* **Churn-tick (join) cost** — the PR 1 performance notes name join
  traffic as the dominant churn cost: every joiner's entry round costs
  one reply per active node.  An isolated probe (one quiet joiner, as
  in E13) pins that round's message count at ``O(n/S)``.
* **Safety under a hot shard** — traffic is deliberately Zipf-skewed
  by *shard*, so one shard serves most operations while others idle;
  merged-cluster checking must stay regular at every shard count
  (shards are independent — skew cannot couple them).

Every cell runs the *same* root seed, so the workload plan (drawn from
the cluster-level RNG, which does not depend on the shard count) is
identical across the sweep — the shard axis is the only thing that
changes, which is what makes the monotonicity claim falsifiable.
"""

from __future__ import annotations

from typing import Any

from ..cluster.config import ClusterConfig
from ..cluster.system import ClusterSystem
from ..exec.spec import RunSpec
from ..workloads.cluster import ClusterWorkloadDriver
from .harness import Experiment, Judgement, drive_skewed_cluster

N = 48
DELTA = 5.0
KEYS = 16
#: Shard counts swept (1 is the unsharded keyed store).
SHARD_COUNTS = (1, 2, 4, 8)
SKEW = "zipf"


def cell(
    seed: int,
    shards: int,
    n: int,
    delta: float,
    keys: int,
    horizon: float,
    churn_rate: float,
    read_rate: float,
    write_period: float,
    skew: str,
) -> dict[str, Any]:
    """One shard-count cell: drive the cluster, close, judge, measure."""
    config = ClusterConfig(
        shards=shards, keys=keys, n=n, delta=delta, protocol="sync", seed=seed
    )
    cluster = ClusterSystem(config)
    cluster.attach_churn(rate=churn_rate, min_stay=3.0 * delta)
    driver = ClusterWorkloadDriver(cluster)
    safety = drive_skewed_cluster(
        cluster, driver, horizon, horizon - 4.0 * delta, write_period, read_rate,
        "e14", skew,
    )
    stats = driver.stats
    op_counts = driver.shard_op_counts()
    total_ops = sum(op_counts) or 1
    return {
        "violations": safety.violation_count,
        "checked": safety.checked_count,
        "delivered": cluster.delivered_count,
        "per_node_delivered": cluster.per_node_delivered(),
        "joins_completed": sum(
            1 for j in cluster.history.operations("join") if j.done
        ),
        "reads_issued": stats.reads_issued,
        "writes_issued": stats.writes_issued,
        "hot_shard_share": max(op_counts) / total_ops,
        "join_round_msgs": _probe_join_round(seed, shards, n, delta, keys),
    }


def _probe_join_round(
    seed: int, shards: int, n: int, delta: float, keys: int
) -> int:
    """One joiner's isolated entry-round message cost in shard 0.

    A quiet cluster (no workload, no churn) admits exactly one joiner
    into shard 0 and counts the point-to-point sends its entry round
    causes — the replies every active *shard* member owes, i.e. the
    churn-tick join cost the sweep claims falls as ``n/S``.
    """
    probe = ClusterSystem(
        ClusterConfig(
            shards=shards, keys=keys, n=n, delta=delta, protocol="sync", seed=seed
        )
    )
    before = probe.sent_count
    probe.shards[0].spawn_joiner()
    probe.run_for(6.0 * delta)
    join = probe.shards[0].history.joins()[0]
    if not join.done:  # pragma: no cover - a quiet shard always admits
        raise AssertionError("probe joiner failed to enter shard 0")
    return probe.sent_count - before


def _grid(p: dict[str, Any], quick: bool) -> list[RunSpec]:
    # Every cell runs the same root seed on purpose: the workload plan is
    # shard-count-independent, so the shard axis is the only variable.
    fixed = dict(
        seed=p["seed"], n=N, delta=DELTA, keys=KEYS,
        horizon=150.0 if quick else 360.0, churn_rate=0.02, read_rate=1.0,
        write_period=2.0 * DELTA, skew=SKEW,
    )
    return [
        RunSpec(
            kind=f"{__name__}:cell",
            params=dict(shards=shards, **fixed),
            label=f"e14:shards={shards}",
        )
        for shards in p["shard_counts"]
    ]


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    rows = [
        dict(
            shards=shards,
            per_node_load=round(data["per_node_delivered"], 2),
            join_round_msgs=data["join_round_msgs"],
            delivered=data["delivered"],
            reads=data["reads_issued"],
            writes=data["writes_issued"],
            joins=data["joins_completed"],
            hot_share=round(data["hot_shard_share"], 3),
            checked=data["checked"],
            violations=data["violations"],
        )
        for shards, data in zip(p["shard_counts"], outcomes)
    ]
    notes = [
        "per_node_load is total delivered messages over the fixed total "
        "population; every cell drives the identical operation plan "
        "(same root seed), so the shard count is the only variable",
        "join_round_msgs is one joiner's isolated entry round in shard 0 "
        "(the E13-style probe): the churn-tick join cost, which shrinks "
        "with the shard population n/S",
        "hot_share is the busiest shard's fraction of issued operations "
        "under the zipf shard skew — the hot-shard scenario the checking "
        "must survive",
    ]
    all_regular = not any(data["violations"] for data in outcomes)
    loads = [data["per_node_delivered"] for data in outcomes]
    join_costs = [data["join_round_msgs"] for data in outcomes]
    load_monotone = all(a > b for a, b in zip(loads, loads[1:]))
    join_monotone = all(a >= b for a, b in zip(join_costs, join_costs[1:]))
    if all_regular and load_monotone and join_monotone:
        verdict = (
            "REPRODUCED: per-node delivered load falls monotonically with "
            "the shard count, per-join churn traffic shrinks with n/S, and "
            "every shard stays regular under hot-shard skew"
        )
    elif all_regular:
        verdict = (
            "NOT REPRODUCED: regular, but sharding failed to cut "
            f"per-node load/join cost monotonically (loads={loads}, "
            f"join_costs={join_costs})"
        )
    else:
        verdict = "NOT REPRODUCED: a sharded run violated per-key regularity"
    return rows, notes, verdict


#: Shard counts at fixed total population; quick mode keeps the first three.
EXPERIMENT = Experiment(
    id="E14",
    title="Sharded cluster — load and churn cost fall with the shard count",
    claim=(
        "partitioning the key space over S independent quorum shards "
        "divides per-node message load and per-join churn traffic by "
        "~S at fixed total population, while merged-cluster checking "
        "stays regular even under hot-shard skew"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, keys=KEYS,
        shard_counts=SHARD_COUNTS[:3] if quick else SHARD_COUNTS, skew=SKEW, seed=seed,
    ),
    grid=_grid,
    judge=_judge,
)
