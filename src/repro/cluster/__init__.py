"""``repro.cluster`` — the keyed store scaled across quorum shards.

The paper implements one register in one churned population; PR 4 grew
that into a keyed multi-register store; this package partitions the
key space across ``S`` *independent* quorum groups (each a complete
:class:`~repro.runtime.system.DynamicSystem` — own churn, own network,
own protocol instances) sharing one simulated clock, with cluster-
level routing, merged histories and merged checking on top:

* :class:`ClusterConfig` — shards, keys, total population; static
  seeded key→shard hashing; per-shard config derivation;
* :class:`ClusterSystem` — construction, fire-time routing through
  one per-key serializing front door, churn/fault scoping, aggregate
  accounting;
* :class:`ClusterHistory` / :func:`cluster_digest` — the merged
  observable behaviour on the common clock;
* :func:`check_cluster_safety` / :func:`find_cluster_inversions` /
  :func:`check_cluster_liveness` — cluster verdicts by delegation to
  the unchanged single-system checkers (plus the seam views of
  migrated keys);
* :class:`KeyMigration` / :class:`MigrationSpec` /
  :class:`MigrationRecord` — live resharding: fault-tolerant key
  handoff between shards (freeze → copy → install → flip + drain,
  with a clean abort path);
* :class:`Rebalancer` / :class:`RebalancePolicy` — the policy on top
  of the mechanism: samples per-shard load, plans budget-bounded
  batches of handoffs (greedy hottest-key-to-coldest-shard, plus a
  ``retire_shard`` scale-down mode).
"""

from .checker import (
    check_cluster_liveness,
    check_cluster_safety,
    find_cluster_inversions,
)
from .config import ClusterConfig
from .history import ClusterHistory, cluster_digest
from .migration import KeyMigration, MigrationRecord, MigrationSpec
from .rebalance import (
    RebalanceAction,
    RebalancePolicy,
    Rebalancer,
    RebalanceSample,
)
from .system import ClusterSystem

__all__ = [
    "ClusterConfig",
    "ClusterHistory",
    "ClusterSystem",
    "KeyMigration",
    "MigrationRecord",
    "MigrationSpec",
    "RebalanceAction",
    "RebalancePolicy",
    "RebalanceSample",
    "Rebalancer",
    "check_cluster_liveness",
    "check_cluster_safety",
    "cluster_digest",
    "find_cluster_inversions",
]
