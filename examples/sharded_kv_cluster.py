#!/usr/bin/env python3
"""A sharded key-value cluster serving Zipf-skewed traffic, end to end.

The ROADMAP's north star asks the paper's single churned register to
grow into a system that serves heavy traffic from a large population.
This example is that trajectory in one screen: a 4-shard cluster
serving 16 registers, every shard an *independent* instance of the
paper's synchronous protocol (own quorum group, own churn, own
network) on one shared simulated clock:

* 48 processes total, split 12 per shard — a write dissemination or a
  joiner's entry round only touches the owning shard's 12 peers, never
  all 48 (the E14 scaling claim);
* keys are placed by seeded hashing, so every client derives the same
  placement with no routing state, and each operation is routed to its
  key's owner when it fires, through the cluster's one front door;
* traffic is Zipf-skewed **by shard** — one hot shard takes most of
  the operations while the tail idles, the production failure shape —
  and per-key regularity must survive it, because shards cannot couple;
* the merged history (operations stamped with their shard) is audited
  by the cluster checkers, which delegate to the paper's unchanged
  single-system machinery shard by shard.

Run:  python examples/sharded_kv_cluster.py
"""

import os

from repro.cluster import ClusterConfig, ClusterSystem, cluster_digest
from repro.workloads.cluster import shard_skewed_key_picker
from repro.workloads.generators import assign_keys, read_heavy_plan
from repro.workloads.schedule import WorkloadDriver

#: The examples smoke suite sets REPRO_EXAMPLES_QUICK=1 to shrink the
#: simulated horizon; the story (and every printed section) is the same.
QUICK = os.environ.get("REPRO_EXAMPLES_QUICK") == "1"

SHARDS = 4
KEYS = 16
N = 48
DELTA = 5.0
CHURN = 0.02
HORIZON = 150.0 if QUICK else 400.0

config = ClusterConfig(
    shards=SHARDS, keys=KEYS, n=N, delta=DELTA, protocol="sync", seed=7
)
cluster = ClusterSystem(config)
print(f"sharded kv cluster: {SHARDS} shards x {N // SHARDS} processes, "
      f"{KEYS} keys, δ={DELTA}, churn c={CHURN} per shard")
for shard, owned in enumerate(config.keys_by_shard()):
    print(f"  shard {shard}: keys {', '.join(map(str, owned)) or '(none)'}")

cluster.attach_churn(rate=CHURN, min_stay=3 * DELTA)

# One plan for the whole cluster: periodic writes, Poisson reads, every
# operation's key drawn shard-first from a Zipf — shard 0 of the
# populated ranking is the hot shard.
driver = WorkloadDriver(cluster)
plan = read_heavy_plan(
    start=5.0,
    end=HORIZON - 4 * DELTA,
    write_period=2 * DELTA,
    read_rate=2.0,
    rng=cluster.rng.stream("example.plan"),
)
plan = assign_keys(
    plan,
    shard_skewed_key_picker(cluster, cluster.rng.stream("example.skew")),
)
driver.install(plan)
cluster.run_until(HORIZON)
history = cluster.close()

# ---------------------------------------------------------------- audit
safety = cluster.check_safety()
liveness = cluster.check_liveness(grace=10 * DELTA)
per_shard = driver.load.per_shard
print()
print(f"operations issued    : {driver.stats.reads_issued} reads, "
      f"{driver.stats.writes_issued} writes")
print(f"per-shard share      : "
      + ", ".join(f"s{i}={ops}" for i, ops in enumerate(per_shard))
      + f"  (hot shard carries {max(per_shard) / (sum(per_shard) or 1):.0%})")
print(f"joins across shards  : {len(history.operations('join'))} started")
delivered = sum(shard.network.delivered_count for shard in cluster.shards)
print(f"messages delivered   : {delivered} total "
      f"= {delivered / config.n:.1f} per node of the whole population")
print(f"cluster digest       : {cluster_digest(history)[:16]}… "
      f"(reproducible from seed {config.seed})")

print()
print(safety.summary())
print(liveness.summary())
if safety.is_safe:
    print("cluster verdict: every key on every shard stayed regular — "
          "the hot shard saturated, the others idled, none interfered")
