"""What a planned read costs the drive, in Python calls per issued read.

A planned read without a named reader is one call chain: the plan's
series calls the driver's ``_fire``, which draws an active process in
place from the membership's cached active list
(``Membership.draw_active``, the ``Random.choice`` draw inlined) and
calls the node's ``read`` with the history: a synchronous read is born
complete, and nothing waits on a planned one, so it builds no handle and
appends its row (``History.record_read``, one call).  The drawn process
is present and active by construction, so nothing asks again.
``sys.setprofile`` counts every Python-level ``call`` event over
``run_until`` — deterministic for a fixed seed, so the bound holds
without timing noise.  The run is the one
``tests/core/test_checker_cost.py`` judges: the read-heavy synchronous
run of ``history_check_200k`` on a shorter horizon (n = 50, churn 0.02,
seed 0, about 10 k local reads, every other event of the drive counted
too).  It measures 7.23 calls per issued read: 8.23 when the read built
an ``OperationHandle`` and the driver recorded it
(``OperationHandle.__init__`` and ``History.record_operation`` in place
of ``History.record_read``); 9.2 when the plan's
series re-pushed itself through ``EventScheduler._push`` before each op
(the plan is one vector, its entries built an epoch at a time); 18.2
when the read ran as a generator body under ``run_operation``
(``resolve``, the body, ``value``, ``_position``, ``_complete``), the
draw entered ``Random.choice`` and ``_randbelow`` and a closure
dispatched each op; 28.4 when the driver also copied the active list,
re-checked the drawn pid's presence, looked its node up through
``system.node`` and asked ``is_active`` three times, and every
completed handle entered ``_fire_callbacks``.

A cluster's planned read is the same chain with the routing inlined:
the driver looks the key's owning shard up in the cluster's key→shard
map, draws from that shard and counts the op in its ``ShardLoad`` (one
call).  The same plan, keyed by ``shard_skewed_key_picker`` over a
4-shard, 16-key cluster of 200 (churn 0.02, seed 0, 9,943 reads),
measures 15.14 calls per read: 16.14 with a handle per read, 19.14 when
a cluster had its own driver,
which entered ``resolve_key``, then ``shard_of`` (which resolved the key
again), then its own counting method.
"""

from __future__ import annotations

import sys

from repro.cluster import ClusterConfig, ClusterSystem
from repro.workloads.cluster import shard_skewed_key_picker
from repro.workloads.generators import assign_keys, read_heavy_plan
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import make_system

DELTA = 5.0
HORIZON = 65.0
#: The ratchets: calls over the drive per issued read.
MAX_CALLS_PER_READ = 7.7
MAX_CALLS_PER_CLUSTER_READ = 15.6


def _plan(system):
    return read_heavy_plan(
        start=1.0,
        end=HORIZON - 3.0 * DELTA,
        write_period=2.0 * DELTA,
        read_rate=200.0,
        rng=system.rng.stream("perf.plan"),
    )


def _calls_per_read(system, plan) -> tuple[int, float]:
    """Install ``plan`` and drive ``system`` to the horizon under a call
    counter: the issued reads and the calls per issued read."""
    driver = WorkloadDriver(system)
    driver.install(plan)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        system.run_until(HORIZON)
    finally:
        sys.setprofile(None)
    assert driver.stats.reads_skipped == 0
    reads = driver.stats.reads_issued
    return reads, calls / reads


def test_a_planned_read_costs_at_most_seven_point_seven_calls_of_the_drive():
    system = make_system(n=50, delta=DELTA, seed=0, trace=False)
    system.attach_churn(rate=0.02)
    reads, per_read = _calls_per_read(system, _plan(system))
    assert 9_000 < reads < 11_000
    assert per_read <= MAX_CALLS_PER_READ, (
        f"{per_read:.2f} calls per read over {reads} issued reads"
    )


def test_a_planned_cluster_read_costs_at_most_fifteen_point_six_calls():
    cluster = ClusterSystem(
        ClusterConfig(shards=4, keys=16, n=200, delta=DELTA, protocol="sync", seed=0)
    )
    cluster.attach_churn(rate=0.02)
    plan = assign_keys(
        _plan(cluster),
        shard_skewed_key_picker(cluster, cluster.rng.stream("perf.keys")),
    )
    reads, per_read = _calls_per_read(cluster, plan)
    assert reads == 9_943
    assert per_read <= MAX_CALLS_PER_CLUSTER_READ, (
        f"{per_read:.2f} calls per read over {reads} issued reads"
    )
