"""The determinism ratchet: ``python -m repro bench``.

``perf/`` (``BENCHMARK.json``) is the repository's one timing
instrument — every wall-time claim is read there.  This module keeps
what only it does: :data:`DIGEST_WORKLOADS`, one table of six
fixed-seed runs (plain, faulted, keyed, sharded, migrating, rebalanced)
whose SHA-256 digests must be byte-identical across PRs and
interpreters.  ``repro bench`` runs each twice in one process (a
scheduler or RNG regression that breaks reproducibility shows as
UNSTABLE), writes them with a handful of smoke timings to the
``BENCH_kernel.json`` artifact, and with ``--compare OLD.json``
(:func:`compare_artifacts`) fails on any digest that differs from the
committed artifact, or on a smoke timing past ``--threshold``.  A PR
that changes behaviour on purpose regenerates ``BENCH_kernel.json`` in
the same commit, exactly as ``perf/run.py --write-pins`` does the pins.

The timed rows (:data:`TIMED_WORKLOADS`, the explorer-sweep pair) are
the ones no ``perf/`` workload answers or whose workload runs anyway
for a digest or a ratio; ``repro profile`` runs any row or digest
workload under cProfile.
"""

from __future__ import annotations

import hashlib
import json
import platform
import random
import time
from typing import Any, Callable

from .cluster.config import ClusterConfig
from .cluster.history import cluster_digest
from .cluster.rebalance import RebalancePolicy, Rebalancer
from .cluster.system import ClusterSystem
from .core.history import operation_digest
from .exec.runner import default_workers, fallback_count
from .faults.plan import FaultPlan, PartitionFault
from .runtime.config import SystemConfig
from .runtime.system import DynamicSystem
from .sim.errors import ReproError
from .workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
from .workloads.explorer import explore, schedule_round_robin_migrations
from .workloads.generators import assign_keys, make_key_picker, read_heavy_plan
from .workloads.schedule import WorkloadDriver, WorkloadOp

ARTIFACT_NAME = "BENCH_kernel.json"
SCHEMA_VERSION = 1


def _time_best(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best-of-``repeats`` wall time; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------


def broadcast_fanout(trace: bool) -> int:
    """One hundred write broadcasts into a 50-process system; the
    trace-on / trace-off pair is what the flight recorder costs."""
    system = DynamicSystem(
        SystemConfig(n=50, delta=5.0, protocol="sync", seed=1, trace=trace)
    )
    for _ in range(100):
        system.write()
        system.run_for(12.0)
    return system.network.delivered_count


def mesoscale_million() -> int:
    """One n = 10⁶ mesoscale cell (E18's sub-threshold drive): two
    writes and a 0.3×-threshold churn flow over a million processes,
    closed-form broadcast trajectories instead of per-recipient events.
    No ``perf/`` workload covers the analytic plane.  Returns the
    modeled delivered count (~2 × 10¹¹)."""
    from .experiments.e17_population_scaling import population_churn_threshold
    from .experiments.e18_mesoscale import cell

    n = 1_000_000
    cap = population_churn_threshold(n, 5.0)
    data = cell(
        seed=1, n=n, delta=5.0, rate=0.3 * cap, horizon=18.0, writes=2,
        mode="mesoscale",
    )
    if data["violations"]:
        raise AssertionError("the mesoscale benchmark cell violated regularity")
    return data["delivered"]


#: The keyed and the cluster workloads share a population, a horizon
#: and an operation-plan shape.
_N, _HORIZON = 40, 240.0


def _read_heavy(rng: random.Random) -> list[WorkloadOp]:
    return read_heavy_plan(
        start=5.0, end=_HORIZON - 20.0, write_period=12.0, read_rate=2.0, rng=rng
    )


def keyed_store_fanout(keys: int = 8) -> tuple[int, str]:
    """A churning keyed store under a Zipf fan-out workload.

    ``keys`` registers served by one node population, constant churn
    spawning joiners whose *batched* entry round must install every
    key, reads/writes spread over the keys by a Zipf picker, per-key
    regularity judged at close.  Returns the delivered-message count
    and the history's digest (which covers each operation's key).
    With ``keys=1`` it is the same workload on the classic single
    register: the pair is what serving 8 registers instead of 1 costs.
    """
    system = DynamicSystem(
        SystemConfig(n=_N, delta=5.0, protocol="sync", seed=11, trace=False, keys=keys)
    )
    system.attach_churn(rate=0.04, min_stay=15.0)
    driver = WorkloadDriver(system)
    plan = _read_heavy(system.rng.stream("bench.keyed.plan"))
    if keys > 1:
        plan = assign_keys(
            plan,
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


def cluster_workload(kind: str = "cluster", shards: int = 4) -> tuple[int, str]:
    """A churning sharded cluster under Zipf hot-shard traffic.

    The same population, key count and operation-plan shape served by
    ``shards`` independent quorum groups, with one of three things
    riding the run:

    ``"cluster"``
        Nothing — static routing.  Against ``shards=1`` (one quorum
        group) the delivered-message ratio is ``derived.shard_scaling``:
        deterministic, unlike wall time, and near the shard count.
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
            shards=shards,
            keys=8,
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


def explore_sweep(workers: int) -> tuple[str, int]:
    """The judged sweep the serial / parallel row pair times: six
    heavyweight explorer cells (sync and ES under three fault plans,
    churn on), shrinking disabled.  Returns the report's JSON digest
    and the cell count, so the caller can assert both legs produced the
    byte-identical report the execution engine guarantees."""
    report = explore(
        budget=6,
        seed=3,
        protocols=("sync", "es"),
        delays=("sync",),
        churn_rates=(0.03,),
        plan_names=("none", "light-loss", "writer-crash"),
        seeds_per_combo=1,
        n=30,
        delta=5.0,
        horizon=300.0,
        shrink=False,
        workers=workers,
    )
    blob = json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest(), len(report.outcomes)


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
# The two tables
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


#: The smoke-timed rows, by artifact row name: a zero-argument callable
#: returning the run's delivered-message count (every row's metric).
TIMED_WORKLOADS: dict[str, Callable[[], int]] = {
    "broadcast_fanout_trace_off": lambda: broadcast_fanout(False),
    "broadcast_fanout_trace_on": lambda: broadcast_fanout(True),
    "mesoscale_million": mesoscale_million,
    "keyed_store_fanout_single": lambda: keyed_store_fanout(keys=1)[0],
    "keyed_store_fanout": lambda: keyed_store_fanout()[0],
    "cluster_single": lambda: cluster_workload(shards=1)[0],
    "cluster_sharded": lambda: cluster_workload()[0],
    "migration_handoff": lambda: cluster_workload("migration")[0],
    "rebalance_storm": lambda: cluster_workload("rebalance")[0],
}


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------

#: Workloads ``repro profile`` can run under cProfile, by name: every
#: timed row (so a profile is directly comparable to the matching
#: ``BENCH_kernel.json`` row) and every digest workload.
PROFILE_WORKLOADS: dict[str, Callable[[], Any]] = {
    **TIMED_WORKLOADS,
    **DIGEST_WORKLOADS,
}

#: ``--sort`` spellings accepted by :func:`profile_workload` (a curated
#: subset of pstats' keys — the ones that answer perf questions here).
PROFILE_SORTS = ("cumulative", "tottime", "calls")


def profile_workload(
    name: str, top: int = 25, sort: str = "cumulative"
) -> None:
    """Run one named bench workload under cProfile and print its wall
    time and result, then the ``top`` frames by ``sort`` order: wall
    times say *whether* a change paid off, the frame table *where* the
    time went."""
    import cProfile
    import pstats

    if name not in PROFILE_WORKLOADS:
        raise ReproError(
            f"unknown workload {name!r}; known: {', '.join(PROFILE_WORKLOADS)}"
        )
    if sort not in PROFILE_SORTS:
        raise ReproError(f"unknown sort {sort!r}; known: {', '.join(PROFILE_SORTS)}")
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = PROFILE_WORKLOADS[name]()
    profiler.disable()
    wall = time.perf_counter() - start
    print(f"workload {name}: {wall:.3f}s wall (profiled), result {result!r}")
    stats = pstats.Stats(profiler)
    stats.strip_dirs().sort_stats(sort).print_stats(top)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


def run_kernel_benchmarks(
    repeats: int = 3, workers: int | None = None
) -> dict[str, Any]:
    """Run both tables and the explorer-sweep pair; return the artifact.

    ``workers`` sizes the multi-worker leg of the parallel-sweep
    benchmark (default: all cores).
    """
    benchmarks: list[dict[str, Any]] = []
    walls: dict[str, float] = {}
    values: dict[str, Any] = {}

    def record(name: str, metric: str, seconds: float, value: Any) -> None:
        walls[name], values[name] = seconds, value
        benchmarks.append(
            {
                "name": name,
                "wall_seconds": round(seconds, 6),
                "metric": metric,
                "value": value,
            }
        )

    for name, workload in TIMED_WORKLOADS.items():
        record(name, "delivered", *_time_best(workload, repeats))

    sweep_workers = max(1, workers) if workers is not None else default_workers()
    seconds, (serial_digest, sweep_cells) = _time_best(
        lambda: explore_sweep(workers=1), repeats
    )
    record("explore_sweep_serial", "cells", seconds, sweep_cells)
    fallbacks_before = fallback_count()
    seconds, (parallel_digest, parallel_cells) = _time_best(
        lambda: explore_sweep(workers=sweep_workers), repeats
    )
    record("explore_sweep_parallel", "cells", seconds, parallel_cells)
    # Whether the parallel leg truly ran on a pool: in a pool-less
    # environment the Runner falls back to the serial path, and the
    # recorded speedup would otherwise masquerade as a regression.
    pool_used = sweep_workers > 1 and fallback_count() == fallbacks_before
    if (serial_digest, sweep_cells) != (parallel_digest, parallel_cells):
        raise AssertionError(
            "the parallel explorer sweep produced a different report than "
            "the serial one — the execution engine's ordering guarantee broke"
        )

    determinism: dict[str, Any] = {}
    for field, workload in DIGEST_WORKLOADS.items():
        determinism[field] = workload()
        determinism[stable_field(field)] = workload() == determinism[field]

    def ratio(over: str, under: str) -> float:
        return round(walls[over] / walls[under], 3)

    return {
        "artifact": "BENCH_kernel",
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "repeats": repeats,
        "benchmarks": benchmarks,
        "parallel_workers": sweep_workers,
        "parallel_pool_used": pool_used,
        "derived": {
            "trace_off_speedup": ratio(
                "broadcast_fanout_trace_on", "broadcast_fanout_trace_off"
            ),
            # what serving 8 registers instead of 1 costs end to end on
            # the same churning population — joins are batched over
            # keys, so this should stay near 1, not near 8.
            "keyed_fanout_overhead": ratio(
                "keyed_store_fanout", "keyed_store_fanout_single"
            ),
            # the delivered-message reduction from partitioning the same
            # workload over 4 quorum shards at fixed total population —
            # a message count, not a wall time; near 4, not near 1.
            "shard_scaling": round(
                values["cluster_single"] / values["cluster_sharded"], 3
            ),
            # serial wall time over multi-worker wall time for the same
            # judged sweep; ~1.0 (pool overhead only) on a single-core
            # host, >1 with real cores to fan out across.
            "parallel_explore_speedup": ratio(
                "explore_sweep_serial", "explore_sweep_parallel"
            ),
        },
        "determinism": determinism,
    }


# ----------------------------------------------------------------------
# Artifact comparison (``repro bench --compare OLD.json``)
# ----------------------------------------------------------------------


def _walls(artifact: dict[str, Any]) -> dict[str, float]:
    return {b["name"]: b["wall_seconds"] for b in artifact.get("benchmarks", [])}


def _normalized_deltas(old: dict[str, Any], new: dict[str, Any]) -> dict[str, float]:
    """Label → delta for every timing and ratio both artifacts know,
    normalized so that above 1.0 is the regression direction: wall
    times and overhead ratios growing, speedup/scaling ratios
    *shrinking* (inverted).  The one statement of the direction rule:
    :func:`compare_artifacts` (flagging) and :func:`worst_delta` (the
    one-line summary) both read it, so they never name different
    culprits.
    """
    old_walls = _walls(old)
    deltas = {
        name: wall / old_walls[name] if old_walls[name] > 0 else float("inf")
        for name, wall in _walls(new).items()
        if name in old_walls
    }
    old_derived = old.get("derived", {})
    for name, value in new.get("derived", {}).items():
        old_value = old_derived.get(name)
        if old_value is None or old_value <= 0:
            continue
        drift = value / old_value
        if "overhead" not in name:
            # A speedup/scaling ratio collapsing to zero is a total
            # regression, not a skippable entry (an overhead doing so
            # is an improvement).
            drift = float("inf") if value <= 0 else 1.0 / drift
        deltas[f"derived.{name}"] = drift
    return deltas


def compare_artifacts(
    old: dict[str, Any], new: dict[str, Any], threshold: float = 0.5
) -> tuple[list[str], list[str]]:
    """Diff two bench artifacts: wall times, derived ratios, digests.

    Returns ``(lines, regressions)``: a human-readable line for every
    entry, and the labels flagged as regressions — a wall time more
    than ``threshold`` (fractionally) slower than the old artifact, a
    speedup ratio more than ``threshold`` below it, or a determinism
    digest that differs at all (``determinism.<field>``; no threshold
    applies — a PR that changes scheduling/RNG on purpose regenerates
    the committed artifact and says so).  Entries only one side knows
    are reported but never flagged (artifacts grow and shrink across
    PRs).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    lines: list[str] = []
    regressions: list[str] = []
    deltas = _normalized_deltas(old, new)
    limit = 1.0 + threshold
    old_walls, new_walls = _walls(old), _walls(new)
    for name, wall in new_walls.items():
        if name not in old_walls:
            lines.append(f"{name}: new workload ({wall * 1e3:.2f} ms), no baseline")
            continue
        line = (
            f"{name}: {old_walls[name] * 1e3:.2f} ms -> {wall * 1e3:.2f} ms "
            f"({deltas[name]:.2f}x)"
        )
        if deltas[name] > limit:
            line += f"  REGRESSION (> {limit:.2f}x)"
            regressions.append(name)
        lines.append(line)
    for name in sorted(set(old_walls) - set(new_walls)):
        lines.append(f"{name}: workload dropped (was {old_walls[name] * 1e3:.2f} ms)")
    old_derived = old.get("derived", {})
    for name, value in new.get("derived", {}).items():
        label = f"derived.{name}"
        if old_derived.get(name) is None:
            lines.append(f"{label}: new ratio ({value}), no baseline")
        elif deltas.get(label, 0.0) > limit:
            lines.append(f"{label}: {old_derived[name]} -> {value}  REGRESSION")
            regressions.append(label)
        else:
            lines.append(f"{label}: {old_derived[name]} -> {value}")
    old_digests, new_digests = old.get("determinism", {}), new.get("determinism", {})
    for field in DIGEST_WORKLOADS:
        label = f"determinism.{field}"
        if field not in old_digests or field not in new_digests:
            continue
        if old_digests[field] == new_digests[field]:
            lines.append(f"{label}: unchanged")
        else:
            lines.append(
                f"{label}: CHANGED {old_digests[field][:16]}… -> "
                f"{new_digests[field][:16]}…  REGRESSION"
            )
            regressions.append(label)
    return lines, regressions


def worst_delta(
    old: dict[str, Any], new: dict[str, Any]
) -> tuple[str, float] | None:
    """The single worst :func:`_normalized_deltas` entry, as ``(label,
    delta)`` — ``("rebalance_storm", 1.42)`` means the worst offender
    is 42% worse than the baseline — or ``None`` when nothing is
    comparable.  The one-line PASS/FAIL summary of ``--compare``."""
    deltas = _normalized_deltas(old, new)
    return max(deltas.items(), key=lambda pair: pair[1]) if deltas else None


def run_and_report(
    out_path: str = ARTIFACT_NAME,
    repeats: int = 3,
    workers: int | None = None,
    compare_to: str | None = None,
    threshold: float = 0.5,
) -> int:
    """CLI body of ``python -m repro bench``.

    Exits non-zero if a digest workload is unstable within the process,
    or — with ``compare_to``, a committed artifact such as the
    repository's ``BENCH_kernel.json`` — if a digest differs from the
    baseline's or a timing regressed past ``threshold``.
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
    payload = run_kernel_benchmarks(repeats=repeats, workers=workers)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    width = max(len(b["name"]) for b in payload["benchmarks"])
    for bench in payload["benchmarks"]:
        print(
            f"{bench['name']:<{width}}  {bench['wall_seconds'] * 1e3:9.2f} ms  "
            f"({bench['metric']}={bench['value']})"
        )
    for key, value in payload["derived"].items():
        print(f"{key:<{width}}  {value:9.2f} x")
    determinism = payload["determinism"]
    for field in DIGEST_WORKLOADS:
        stable = "STABLE" if determinism[stable_field(field)] else "UNSTABLE"
        print(f"{field:<{width}}  {determinism[field][:16]}… {stable}")
    print(f"wrote {out_path}")
    if not all(determinism[stable_field(field)] for field in DIGEST_WORKLOADS):
        return 1
    if baseline is not None:
        print(f"\ncomparison against {compare_to} (threshold {threshold:.0%}):")
        lines, regressions = compare_artifacts(baseline, payload, threshold)
        for line in lines:
            print(f"  {line}")
        worst = worst_delta(baseline, payload)
        verdict = "FAIL" if regressions else "PASS"
        if worst is not None:
            print(
                f"COMPARE {verdict}: worst delta {worst[0]} {worst[1]:.2f}x "
                f"(threshold {1.0 + threshold:.2f}x)"
            )
        else:
            print(f"COMPARE {verdict}: no comparable workloads")
        if regressions:
            print(f"REGRESSED: {', '.join(regressions)}")
            return 1
    return 0
