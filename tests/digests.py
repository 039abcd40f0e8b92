"""The five fixed-seed digest workloads.

``perf/`` (``BENCHMARK.json``) is the repository's one timing
instrument — every wall-time claim is read there.  This test module is
:data:`DIGEST_WORKLOADS`, one table of five fixed-seed runs (plain,
faulted, keyed, migrating, rebalanced) whose SHA-256 digests
must be byte-identical across changes and interpreters: the golden
store's ``digest/`` family (``tests/golden.py``) pins them, and a
change that moves one on purpose regenerates the store.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.cluster.config import ClusterConfig
from repro.cluster.history import cluster_digest
from repro.cluster.rebalance import RebalancePolicy, Rebalancer
from repro.cluster.system import ClusterSystem
from repro.core.history import operation_digest
from repro.faults.plan import FaultPlan, PartitionFault
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.workloads.cluster import (
    schedule_round_robin_migrations,
    shard_skewed_key_picker,
)
from repro.workloads.generators import drive_read_heavy, make_key_picker
from repro.workloads.schedule import WorkloadDriver


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------

#: The keyed and the cluster workloads share a population, a key count,
#: a horizon and an operation-plan shape: :func:`drive_read_heavy`'s
#: horizon, plan end, write period and read rate.
_N, _KEYS, _HORIZON = 40, 8, 240.0
_PLAN = (_HORIZON, _HORIZON - 20.0, 12.0, 2.0)


def keyed_store_fanout() -> tuple[int, str]:
    """A churning keyed store under a Zipf fan-out workload.

    Eight registers served by one node population, constant churn
    spawning joiners whose *batched* entry round must install every
    key, reads/writes spread over the keys by a Zipf picker, per-key
    regularity judged at close.  Returns the delivered-message count
    and the history's digest (which covers each operation's key).
    """
    system = DynamicSystem(
        SystemConfig(n=_N, delta=5.0, protocol="sync", seed=11, trace=False, keys=_KEYS)
    )
    system.attach_churn(rate=0.04, min_stay=15.0)
    history = drive_read_heavy(
        system, WorkloadDriver(system), *_PLAN, "bench.keyed.plan",
        make_key_picker("zipf", system.keys, system.rng.stream("bench.keyed.keys")),
    )
    safety = system.check_safety()
    if not safety.is_safe:
        raise AssertionError(
            f"the keyed fan-out workload violated per-key regularity "
            f"({safety.violation_count} bad reads) — the RegisterSpace "
            f"refactor broke the protocol"
        )
    return system.network.delivered_count, operation_digest(history)


#: The cluster workload's fixed seed by what rides it.  The seeds and
#: the ``bench.<kind>.*`` RNG stream names are the ones the committed
#: digests were taken with.
_CLUSTER_SEEDS = {"migration": 23, "rebalance": 29}


def cluster_workload(kind: str) -> tuple[int, str]:
    """A churning 4-shard cluster under Zipf hot-shard traffic.

    The keyed store's population, key count and operation-plan shape
    served by four independent quorum groups, every operation routed
    to its key's owner when it fires, with one of two things riding
    the run:

    ``"migration"``
        Three keys hand off to neighbouring shards mid-run.
    ``"rebalance"``
        No handoff is hand-scheduled: an aggressive
        :class:`~repro.cluster.rebalance.Rebalancer` (short period, low
        threshold, budget 2) watches per-shard load and plans
        concurrent handoff storms itself.

    Returns the cluster-wide delivered count and the merged history's
    cluster digest, which covers every operation's shard id and every
    migration record (phase, flip instant, retries).  The rebalanced
    run folds in the rebalancer's own sample/action/record digest, so
    a policy planning different moves, at different ticks, from the
    same loads changes the fingerprint even when the operations match.
    """
    delta = 5.0
    cluster = ClusterSystem(
        ClusterConfig(
            shards=4,
            keys=_KEYS,
            n=_N,
            delta=delta,
            protocol="sync",
            seed=_CLUSTER_SEEDS[kind],
        )
    )
    cluster.attach_churn(rate=0.04, min_stay=15.0)
    if kind == "migration":
        schedule_round_robin_migrations(cluster, 3, _HORIZON)
    driver = WorkloadDriver(cluster)
    rebalancer = None
    if kind == "rebalance":
        rebalancer = Rebalancer(
            cluster,
            driver=driver,
            policy=RebalancePolicy(
                period=3.0 * delta,
                threshold=1.2,
                budget=2,
                max_retries=1,
                plan_until=_HORIZON - 18.0 * delta,
            ),
        )
    history = drive_read_heavy(
        cluster, driver, *_PLAN, f"bench.{kind}.plan",
        shard_skewed_key_picker(cluster, cluster.rng.stream(f"bench.{kind}.keys")),
    )
    safety = cluster.check_safety()
    if not safety.is_safe:
        raise AssertionError(
            f"the {kind} cluster workload violated per-key regularity "
            f"({safety.violation_count} bad reads) — the routing, the "
            f"handoff protocol or the merge broke"
        )
    if any(not r.finished for r in cluster.migration_records()):
        raise AssertionError(
            f"a handoff of the {kind} cluster workload was still mid-phase "
            f"at the horizon — the timeout ladder or the plan_until "
            f"quiesce margin broke"
        )
    digest = cluster_digest(history)
    if rebalancer is not None:
        digest = hashlib.sha256(
            (digest + rebalancer.digest()).encode("ascii")
        ).hexdigest()
    return sum(s.network.delivered_count for s in cluster.shards), digest


def history_digest(faults: FaultPlan | None = None) -> str:
    """SHA-256 fingerprint of a fixed-seed churn run's operation history.

    ``faults=None`` is the canonical determinism workload; passing a
    plan fingerprints a faulted run, which must be just as
    reproducible.  The canonical run is untraced and clean, so its
    sends draw their delay inline: an unchanged digest across PRs is
    also the oracle for "inline draw ≡ ``DelayModel.sample``".
    """
    system = DynamicSystem(
        SystemConfig(
            n=15, delta=5.0, protocol="sync", seed=7, trace=False, faults=faults
        )
    )
    system.attach_churn(rate=0.05, min_stay=15.0)
    for _ in range(10):
        system.write()
        system.run_for(8.0)
        for pid in system.active_pids()[:5]:
            system.read(pid)
        system.run_for(4.0)
    return operation_digest(system.close())


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_FAULTED_PLAN = FaultPlan.of(
    PartitionFault(start=30.0, end=45.0, group_a=frozenset({"p0001", "p0002"})),
    name="bench-faulted",
)

#: The five fixed-seed digest workloads, by name: a zero-argument
#: callable returning the digest.  The only place they are listed: the
#: golden store's ``digest/<name>`` entries
#: (``tests/integration/test_determinism.py``) iterate this table.
#: Each later entry covers what the ones before it cannot see: a fault
#: window acting, the operation's key, its shard id and the migration
#: records, the rebalancer's samples and planned moves.
DIGEST_WORKLOADS: dict[str, Callable[[], str]] = {
    "digest": history_digest,
    "faulted_digest": lambda: history_digest(faults=_FAULTED_PLAN),
    "keyed_digest": lambda: keyed_store_fanout()[1],
    "migration_digest": lambda: cluster_workload("migration")[1],
    "rebalance_digest": lambda: cluster_workload("rebalance")[1],
}
