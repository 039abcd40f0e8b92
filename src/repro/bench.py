"""The determinism ratchet: ``python -m repro bench``.

``perf/`` (``BENCHMARK.json``) is the repository's one timing
instrument — every wall-time claim is read there.  This module is
:data:`DIGEST_WORKLOADS`, one table of six fixed-seed runs (plain,
faulted, keyed, sharded, migrating, rebalanced) whose SHA-256 digests
must be byte-identical across PRs and interpreters.  ``repro bench``
runs each twice in one process (a scheduler or RNG regression that
breaks reproducibility shows as UNSTABLE) and writes them to the
``BENCH_kernel.json`` artifact, which is deterministic: two runs differ
only in the ``python`` version that took them.  With ``--compare
OLD.json`` (:func:`compare_artifacts`) it exits 1 naming every digest
that differs from the committed artifact.  A PR that changes behaviour
on purpose regenerates ``BENCH_kernel.json`` in the same commit,
exactly as ``perf/run.py --write-pins`` does the pins.

``repro profile`` runs any digest workload under cProfile; it is the
one place here that reads a clock.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
from typing import Any, Callable

from .cluster.config import ClusterConfig
from .cluster.history import cluster_digest
from .cluster.rebalance import RebalancePolicy, Rebalancer
from .cluster.system import ClusterSystem
from .core.history import operation_digest
from .faults.plan import FaultPlan, PartitionFault
from .runtime.config import SystemConfig
from .runtime.system import DynamicSystem
from .sim.errors import ReproError
from .workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
from .workloads.explorer import schedule_round_robin_migrations
from .workloads.generators import assign_keys, make_key_picker, read_heavy_plan
from .workloads.schedule import WorkloadDriver, WorkloadOp

ARTIFACT_NAME = "BENCH_kernel.json"
#: 2 since the artifact holds the digests only (1 also held timings).
SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------

#: The keyed and the cluster workloads share a population, a key count,
#: a horizon and an operation-plan shape.
_N, _KEYS, _HORIZON = 40, 8, 240.0


def _read_heavy(rng: random.Random) -> list[WorkloadOp]:
    return read_heavy_plan(
        start=5.0, end=_HORIZON - 20.0, write_period=12.0, read_rate=2.0, rng=rng
    )


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
    driver = WorkloadDriver(system)
    plan = assign_keys(
        _read_heavy(system.rng.stream("bench.keyed.plan")),
        make_key_picker("zipf", system.keys, system.rng.stream("bench.keyed.keys")),
    )
    driver.install(plan)
    system.run_until(_HORIZON)
    history = system.close()
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
_CLUSTER_SEEDS = {"cluster": 17, "migration": 23, "rebalance": 29}


def cluster_workload(kind: str = "cluster") -> tuple[int, str]:
    """A churning 4-shard cluster under Zipf hot-shard traffic.

    The keyed store's population, key count and operation-plan shape
    served by four independent quorum groups, with one of three things
    riding the run:

    ``"cluster"``
        Nothing — static routing.
    ``"migration"``
        Three keys hand off to neighbouring shards mid-run and the
        workload routes dynamically (fire-time owner resolution).
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
    driver = ClusterWorkloadDriver(cluster, dynamic=kind != "cluster")
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
    plan = assign_keys(
        _read_heavy(cluster.rng.stream(f"bench.{kind}.plan")),
        shard_skewed_key_picker(cluster, cluster.rng.stream(f"bench.{kind}.keys")),
    )
    driver.install(plan)
    cluster.run_until(_HORIZON)
    history = cluster.close()
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
    return cluster.delivered_count, digest


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

#: The six fixed-seed digest workloads, by their field in the
#: artifact's ``determinism`` block: a zero-argument callable returning
#: the digest.  The only place they are listed — the artifact, the
#: run-twice stability check, the stdout lines, ``--compare``'s digest
#: diff, the exit condition, ``repro profile`` and the tier-1 pin
#: (``tests/integration/test_determinism.py``) all iterate this table.
#: Each later entry covers what the ones before it cannot see: a fault
#: window acting, the operation's key, its shard id, the migration
#: records, the rebalancer's samples and planned moves.
DIGEST_WORKLOADS: dict[str, Callable[[], str]] = {
    "digest": history_digest,
    "faulted_digest": lambda: history_digest(faults=_FAULTED_PLAN),
    "keyed_digest": lambda: keyed_store_fanout()[1],
    "cluster_digest": lambda: cluster_workload()[1],
    "migration_digest": lambda: cluster_workload("migration")[1],
    "rebalance_digest": lambda: cluster_workload("rebalance")[1],
}


def stable_field(digest_field: str) -> str:
    """The ``determinism`` key holding a digest's run-twice verdict
    (``digest`` → ``stable_within_process``, ``keyed_digest`` →
    ``keyed_stable_within_process``)."""
    return digest_field.replace("digest", "stable_within_process")


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------

#: ``--sort`` spellings accepted by :func:`profile_workload` (a curated
#: subset of pstats' keys — the ones that answer perf questions here).
PROFILE_SORTS = ("cumulative", "tottime", "calls")


def profile_workload(
    name: str, top: int = 25, sort: str = "cumulative"
) -> None:
    """Run one digest workload under cProfile and print its wall time
    and digest, then the ``top`` frames by ``sort`` order: the frame
    table says where the time went; whether a change paid off is
    measured with ``perf/``."""
    import cProfile
    import pstats
    import time

    if name not in DIGEST_WORKLOADS:
        raise ReproError(
            f"unknown workload {name!r}; known: {', '.join(DIGEST_WORKLOADS)}"
        )
    if sort not in PROFILE_SORTS:
        raise ReproError(f"unknown sort {sort!r}; known: {', '.join(PROFILE_SORTS)}")
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = DIGEST_WORKLOADS[name]()
    profiler.disable()
    wall = time.perf_counter() - start
    print(f"workload {name}: {wall:.3f}s wall (profiled), result {result!r}")
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(sort).print_stats(top)


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------


def run_kernel_benchmarks() -> dict[str, Any]:
    """Run every digest workload twice; return the artifact.

    Deterministic: two calls return equal payloads on one interpreter,
    and payloads from different interpreters differ only in
    ``python``.
    """
    determinism: dict[str, Any] = {}
    for field, workload in DIGEST_WORKLOADS.items():
        determinism[field] = workload()
        determinism[stable_field(field)] = workload() == determinism[field]
    return {
        "artifact": "BENCH_kernel",
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "determinism": determinism,
    }


def compare_artifacts(
    old: dict[str, Any], new: dict[str, Any]
) -> tuple[list[str], list[str]]:
    """Diff the digests of two bench artifacts.

    Returns ``(lines, regressions)``: one human-readable line per
    digest, and the ``determinism.<field>`` label of every digest the
    baseline ``old`` does not hold with the same value — changed or
    missing; no tolerance applies.  Nothing else in either artifact is
    read, so a schema-1 baseline (which also held timings) compares
    on its digests alone.
    """
    lines: list[str] = []
    regressions: list[str] = []
    old_digests, new_digests = old.get("determinism", {}), new["determinism"]
    for field in DIGEST_WORKLOADS:
        label = f"determinism.{field}"
        was, now = old_digests.get(field), new_digests[field]
        if was == now:
            lines.append(f"{label}: unchanged")
            continue
        was = "missing" if was is None else f"{was[:16]}…"
        lines.append(f"{label}: CHANGED {was} -> {now[:16]}…  REGRESSION")
        regressions.append(label)
    return lines, regressions


def run_and_report(
    out_path: str = ARTIFACT_NAME, compare_to: str | None = None
) -> int:
    """CLI body of ``python -m repro bench``.

    Exits non-zero if a digest workload is unstable within the process,
    or — with ``compare_to``, a committed artifact such as the
    repository's ``BENCH_kernel.json`` — if a digest differs from the
    baseline's.
    """
    baseline = None
    if compare_to is not None:
        # Load the baseline *before* writing the fresh artifact: with
        # compare_to == out_path (comparing against the committed
        # artifact in place) writing first would clobber the baseline
        # and silently compare the run against itself.
        with open(compare_to) as handle:
            try:
                baseline = json.load(handle)
            except ValueError as error:
                raise OSError(
                    f"baseline {compare_to!r} is not valid JSON: {error}"
                ) from error
    payload = run_kernel_benchmarks()
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    determinism = payload["determinism"]
    width = max(len(field) for field in DIGEST_WORKLOADS)
    for field in DIGEST_WORKLOADS:
        stable = "STABLE" if determinism[stable_field(field)] else "UNSTABLE"
        print(f"{field:<{width}}  {determinism[field][:16]}… {stable}")
    print(f"wrote {out_path}")
    if not all(determinism[stable_field(field)] for field in DIGEST_WORKLOADS):
        return 1
    if baseline is not None:
        print(f"\ncomparison against {compare_to}:")
        lines, regressions = compare_artifacts(baseline, payload)
        for line in lines:
            print(f"  {line}")
        if regressions:
            print(f"COMPARE FAIL: {len(regressions)} of {len(lines)} digests differ")
            print(f"REGRESSED: {', '.join(regressions)}")
            return 1
        print(f"COMPARE PASS: all {len(lines)} digests unchanged")
    return 0
