"""Headless kernel benchmarks: ``python -m repro bench``.

Runs the micro-benchmarks that track the cost of the simulation
substrate (event throughput, broadcast fan-out with tracing on/off,
churn bookkeeping, the keyed-store fan-out pair behind
``derived.keyed_fanout_overhead``, checker cost fast vs. paranoid, a
judged explorer sweep serial vs. multi-worker through the execution
engine) without pytest, and writes the results as a
``BENCH_kernel.json`` trajectory artifact so every PR leaves a perf
baseline behind.

The artifact also records determinism digests — SHA-256 over the
operation histories of fixed-seed runs (plain, faulted, and keyed) —
each computed twice in the same process, so a scheduler or RNG
regression that breaks reproducibility is caught by the same entry
point that measures speed.  :func:`compare_artifacts` (CLI:
``repro bench --compare OLD.json``) diffs a fresh run against a
committed artifact and flags regressions past a threshold.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from typing import Any, Callable

from .core.checker import RegularityChecker, find_new_old_inversions
from .core.history import History, operation_digest
from .exec.runner import default_workers, fallback_count
from .faults.plan import FaultPlan, PartitionFault
from .runtime.assembly import make_scheduler
from .runtime.config import SystemConfig
from .runtime.system import DynamicSystem
from .sim.engine import EventScheduler
from .sim.errors import ReproError

ARTIFACT_NAME = "BENCH_kernel.json"
SCHEMA_VERSION = 1


def _time_best(
    fn: Callable[..., Any], repeats: int, fresh: Callable[[], Any] | None = None
) -> tuple[float, Any]:
    """Best-of-``repeats`` wall time; returns (seconds, last result).

    ``fresh``, if given, builds ``fn``'s argument anew — untimed —
    before every repeat (the checker rows: a closed history shares its
    judgements between checkers, so a repeat on the same object would
    time a dict hit)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        args = () if fresh is None else (fresh(),)
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------


def engine_throughput(events: int = 10_000) -> int:
    """Schedule and drain ``events`` no-op events (shared with pytest)."""
    engine = EventScheduler()
    for i in range(events):
        engine.schedule(float(i % 97) + 0.5, _noop)
    return engine.run()


def _noop() -> None:
    return None


def scheduler_hot_loop(events: int = 200_000) -> int:
    """Deep-queue schedule-then-drain: the raw queue discipline's cost.

    Schedules ``events`` no-op events over ~1000 distinct instants
    (delivery-like fractional offsets), then drains the lot — so the
    queue holds O(events) entries for most of the run, on the bucket
    width every δ = 5 system gets.
    """
    engine = make_scheduler(5.0)
    for i in range(events):
        engine.schedule(0.1 * (i % 997) + 0.5, _noop)
    return engine.run()


def broadcast_fanout(
    trace: bool, broadcasts: int = 100, n: int = 50, gated: bool = False
) -> int:
    """The fan-out workload shared with ``benchmarks/test_bench_kernel.py``.

    ``gated=True`` installs a fault plan whose only fault lies beyond
    the run's horizon, so every message pays the fault gate but none is
    ever touched — this isolates the cost of having the gate open.
    """
    faults = None
    if gated:
        faults = FaultPlan.of(
            PartitionFault(start=1e9, end=2e9, group_a=frozenset({"p0001"})),
            name="bench-gate",
        )
    system = DynamicSystem(
        SystemConfig(n=n, delta=5.0, protocol="sync", seed=1, trace=trace, faults=faults)
    )
    for _ in range(broadcasts):
        system.write()
        system.run_for(12.0)
    return system.network.delivered_count


def churn_ticks(ticks: float = 300.0, n: int = 100) -> int:
    """Run ``ticks`` time units of 10%-churn bookkeeping (shared with pytest)."""
    system = DynamicSystem(
        SystemConfig(n=n, delta=5.0, protocol="sync", seed=1, trace=False)
    )
    system.attach_churn(rate=0.1)
    system.run_until(ticks)
    return system.churn.ticks_executed


def broadcast_fanout_large(broadcasts: int = 40, n: int = 1000) -> int:
    """Kilonode fan-out: the batched-delivery kernel's headline workload.

    Each write broadcast schedules ``n`` deliveries in one vectorized
    call — the wall time tracks the per-recipient cost of the slab
    queue at a population 20x the classic fan-out benchmark's.
    """
    system = DynamicSystem(
        SystemConfig(n=n, delta=5.0, protocol="sync", seed=1, trace=False)
    )
    for _ in range(broadcasts):
        system.write()
        system.run_for(12.0)
    return system.network.delivered_count


def churn_tick_large(ticks: float = 40.0, n: int = 1000) -> int:
    """Churn bookkeeping at ``n = 1000``: every join's inquiry fans out
    to the whole kilonode population and the actives' replies ride the
    point-to-point tuple plane, so this workload exercises the
    batched kernel end to end at population scale (E17's territory)."""
    system = DynamicSystem(
        SystemConfig(n=n, delta=5.0, protocol="sync", seed=1, trace=False)
    )
    system.attach_churn(rate=0.002)
    system.run_until(ticks)
    return system.churn.ticks_executed


def mesoscale_million(n: int = 1_000_000) -> int:
    """One n = 10⁶ mesoscale cell (E18's sub-threshold drive).

    The analytic plane's headline: two writes and a 0.3×-threshold
    churn flow over a million-process population, closed-form broadcast
    trajectories instead of per-recipient events.  Returns the modeled
    delivered count (~2 × 10¹¹ — five orders of magnitude beyond what
    per-event simulation could schedule in the same wall time).
    """
    from .experiments.e17_population_scaling import population_churn_threshold
    from .experiments.e18_mesoscale import cell

    cap = population_churn_threshold(n, 5.0)
    data = cell(
        seed=1, n=n, delta=5.0, rate=0.3 * cap, horizon=18.0, writes=2,
        mode="mesoscale",
    )
    if data["violations"]:
        raise AssertionError(
            "the mesoscale benchmark cell violated regularity"
        )
    return data["delivered"]


def keyed_store_fanout(
    keys: int = 8, n: int = 40, horizon: float = 240.0
) -> tuple[int, str]:
    """A churning keyed store under a Zipf fan-out workload.

    The RegisterSpace workload: ``keys`` registers served by one node
    population, constant churn spawning joiners whose *batched* entry
    round must install every key, reads/writes spread over the keys by
    a Zipf picker, per-key regularity judged at close.  Returns the
    delivered-message count and the history's per-key checker digest
    (the keyed analogue of the determinism digest — covers each
    operation's key).  Run with ``keys=1`` it is the same workload on
    the classic single register, so the pair isolates what serving 8
    registers instead of 1 costs end to end.
    """
    from .workloads.generators import assign_keys, make_key_picker, read_heavy_plan
    from .workloads.schedule import WorkloadDriver

    system = DynamicSystem(
        SystemConfig(n=n, delta=5.0, protocol="sync", seed=11, trace=False, keys=keys)
    )
    system.attach_churn(rate=0.04, min_stay=15.0)
    driver = WorkloadDriver(system)
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 20.0,
        write_period=12.0,
        read_rate=2.0,
        rng=system.rng.stream("bench.keyed.plan"),
    )
    if keys > 1:
        plan = assign_keys(
            plan,
            make_key_picker("zipf", system.keys, system.rng.stream("bench.keyed.keys")),
        )
    driver.install(plan)
    system.run_until(horizon)
    history = system.close()
    safety = system.check_safety()
    if not safety.is_safe:
        raise AssertionError(
            f"the keyed fan-out workload violated per-key regularity "
            f"({safety.violation_count} bad reads) — the RegisterSpace "
            f"refactor broke the protocol"
        )
    return system.network.delivered_count, operation_digest(history)


def cluster_fanout(
    shards: int = 4, keys: int = 8, n: int = 40, horizon: float = 240.0
) -> tuple[int, str]:
    """A churning sharded cluster under Zipf hot-shard traffic.

    The ShardedCluster workload: the same total population, key count
    and operation plan served either by one quorum group
    (``shards=1``) or partitioned over independent shards, with
    traffic Zipf-skewed by shard.  Returns the cluster-wide delivered
    message count and the merged history's cluster digest (covers
    every operation's shard id).  The pair isolates what sharding
    buys end to end: ``derived.shard_scaling`` is the delivered-message
    ratio — deterministic, unlike wall time — and should sit near the
    shard count, not near 1.
    """
    from .cluster.config import ClusterConfig
    from .cluster.history import cluster_digest
    from .cluster.system import ClusterSystem
    from .workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
    from .workloads.generators import assign_keys, read_heavy_plan

    cluster = ClusterSystem(
        ClusterConfig(
            shards=shards, keys=keys, n=n, delta=5.0, protocol="sync", seed=17
        )
    )
    cluster.attach_churn(rate=0.04, min_stay=15.0)
    driver = ClusterWorkloadDriver(cluster)
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 20.0,
        write_period=12.0,
        read_rate=2.0,
        rng=cluster.rng.stream("bench.cluster.plan"),
    )
    plan = assign_keys(
        plan,
        shard_skewed_key_picker(cluster, cluster.rng.stream("bench.cluster.keys")),
    )
    driver.install(plan)
    cluster.run_until(horizon)
    history = cluster.close()
    safety = cluster.check_safety()
    if not safety.is_safe:
        raise AssertionError(
            f"the sharded cluster workload violated per-key regularity "
            f"({safety.violation_count} bad reads) — the cluster routing "
            f"or merge broke the protocol"
        )
    return cluster.delivered_count, cluster_digest(history)


def migration_handoff(
    shards: int = 4, keys: int = 8, n: int = 40, horizon: float = 240.0
) -> tuple[int, str]:
    """The cluster fan-out workload with live key migrations riding it.

    Same population, plan shape and churn as :func:`cluster_fanout`,
    but three keys hand off to neighbouring shards mid-run and the
    workload routes dynamically (fire-time owner resolution, the
    resharding requirement).  Returns the delivered count and the
    merged cluster digest — which covers the migration records, so a
    handoff that commits at a different instant, retries differently
    or flips to a different owner changes the fingerprint even when
    the operation stream happens to match.
    """
    from .cluster.config import ClusterConfig
    from .cluster.history import cluster_digest
    from .cluster.system import ClusterSystem
    from .workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
    from .workloads.generators import assign_keys, read_heavy_plan

    cluster = ClusterSystem(
        ClusterConfig(
            shards=shards, keys=keys, n=n, delta=5.0, protocol="sync", seed=23
        )
    )
    cluster.attach_churn(rate=0.04, min_stay=15.0)
    records = []
    for j in range(3):
        key = cluster.keys[j % len(cluster.keys)]
        dest = (cluster.shard_of(key) + 1) % shards
        records.append(
            cluster.schedule_migration(
                key, dest, at=horizon * (0.15 + 0.4 * j / 3), max_retries=1
            )
        )
    driver = ClusterWorkloadDriver(cluster, dynamic=True)
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 20.0,
        write_period=12.0,
        read_rate=2.0,
        rng=cluster.rng.stream("bench.migration.plan"),
    )
    plan = assign_keys(
        plan,
        shard_skewed_key_picker(cluster, cluster.rng.stream("bench.migration.keys")),
    )
    driver.install(plan)
    cluster.run_until(horizon)
    history = cluster.close()
    safety = cluster.check_safety()
    if not safety.is_safe:
        raise AssertionError(
            f"the migration handoff workload violated per-key regularity "
            f"({safety.violation_count} bad reads) — the handoff protocol "
            f"or the seam checking broke"
        )
    if any(not r.finished for r in records):
        raise AssertionError(
            "a benchmark migration was still mid-phase at the horizon — "
            "the handoff protocol lost its timeout ladder"
        )
    return cluster.delivered_count, cluster_digest(history)


def rebalance_storm(
    shards: int = 4, keys: int = 8, n: int = 40, horizon: float = 240.0
) -> tuple[int, str]:
    """The cluster fan-out workload with a policy-driven rebalancer on it.

    Same population and churn as :func:`migration_handoff`, but the
    traffic is Zipf hot-shard skewed and no migration is hand-scheduled:
    an aggressive :class:`~repro.cluster.rebalance.Rebalancer` (short
    period, low threshold, budget 2) watches per-shard load and plans
    concurrent handoff storms itself.  Returns the delivered count and a
    digest combining the merged cluster history with the rebalancer's
    own sample/action/record digest — so a policy regression that plans
    different moves, at different ticks, from the same loads changes the
    fingerprint even when the operation stream happens to match.
    """
    from .cluster.config import ClusterConfig
    from .cluster.history import cluster_digest
    from .cluster.rebalance import RebalancePolicy, Rebalancer
    from .cluster.system import ClusterSystem
    from .workloads.cluster import ClusterWorkloadDriver, shard_skewed_key_picker
    from .workloads.generators import assign_keys, read_heavy_plan

    delta = 5.0
    cluster = ClusterSystem(
        ClusterConfig(
            shards=shards, keys=keys, n=n, delta=delta, protocol="sync", seed=29
        )
    )
    cluster.attach_churn(rate=0.04, min_stay=15.0)
    driver = ClusterWorkloadDriver(cluster, dynamic=True)
    rebalancer = Rebalancer(
        cluster,
        driver=driver,
        policy=RebalancePolicy(
            period=3.0 * delta,
            threshold=1.2,
            budget=2,
            max_retries=1,
            plan_until=horizon - 18.0 * delta,
        ),
    )
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 20.0,
        write_period=12.0,
        read_rate=2.0,
        rng=cluster.rng.stream("bench.rebalance.plan"),
    )
    plan = assign_keys(
        plan,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream("bench.rebalance.keys"), distribution="zipf"
        ),
    )
    driver.install(plan)
    cluster.run_until(horizon)
    history = cluster.close()
    safety = cluster.check_safety()
    if not safety.is_safe:
        raise AssertionError(
            f"the rebalance storm workload violated per-key regularity "
            f"({safety.violation_count} bad reads) — the rebalancer planned "
            f"an unsafe handoff"
        )
    if any(not r.finished for r in cluster.migration_records()):
        raise AssertionError(
            "a rebalancer-planned migration was still mid-phase at the "
            "horizon — the plan_until quiesce margin broke"
        )
    combined = hashlib.sha256(
        (cluster_digest(history) + rebalancer.digest()).encode("ascii")
    ).hexdigest()
    return cluster.delivered_count, combined


def checker_history(rounds: int = 20, readers: int = 20, per: int = 5) -> History:
    """The ~2k-operation history the checker benchmarks judge."""
    system = DynamicSystem(
        SystemConfig(n=20, delta=5.0, protocol="sync", seed=1, trace=False)
    )
    for _ in range(rounds):
        system.write()
        system.run_for(12.0)
        for pid in system.active_pids()[:readers]:
            for _ in range(per):
                system.read(pid)
    return system.close()


def explore_sweep(workers: int) -> tuple[str, int]:
    """The explorer sweep the parallel-runner benchmark times.

    Six heavyweight cells (sync and ES protocols under three fault
    plans, churn on) through :func:`repro.workloads.explorer.explore`
    with shrinking disabled — an embarrassingly parallel judged sweep.
    Returns the report's JSON digest plus the cell count, so the
    caller can assert the serial and parallel runs produced the
    byte-identical report the engine guarantees.
    """
    from .workloads.explorer import explore

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


def history_digest(seed: int = 7, faults: FaultPlan | None = None) -> str:
    """SHA-256 fingerprint of a fixed-seed churn run's operation history.

    ``faults=None`` is the canonical determinism workload (its digest is
    compared across PRs); passing a plan fingerprints a faulted run,
    which must be just as reproducible.  The canonical run is untraced
    and clean, so its sends draw their delay inline: an unchanged
    digest across PRs is also the oracle for "inline draw ≡
    ``DelayModel.sample``" and "plain ``send_payload`` ≡ the hand-fused
    sends sync once carried".
    """
    system = DynamicSystem(
        SystemConfig(
            n=15, delta=5.0, protocol="sync", seed=seed, trace=False, faults=faults
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
# Profiling
# ----------------------------------------------------------------------

#: Workloads ``repro profile`` can run under cProfile, by name.  Each
#: entry is a zero-argument callable running one benchmark workload at
#: its artifact-default parameters, so a profile is directly comparable
#: to the matching ``BENCH_kernel.json`` row.
PROFILE_WORKLOADS: dict[str, Callable[[], Any]] = {
    "engine_throughput": engine_throughput,
    "broadcast_fanout": lambda: broadcast_fanout(False),
    "broadcast_fanout_large": broadcast_fanout_large,
    "churn_ticks": churn_ticks,
    "churn_tick_large": churn_tick_large,
    "scheduler_hot_loop": scheduler_hot_loop,
    "mesoscale_million": mesoscale_million,
    "keyed_store_fanout": keyed_store_fanout,
    "cluster_fanout": cluster_fanout,
    "migration_handoff": migration_handoff,
    "rebalance_storm": rebalance_storm,
    "history_digest": history_digest,
}

#: ``--sort`` spellings accepted by :func:`profile_workload` (a curated
#: subset of pstats' keys — the ones that answer perf questions here).
PROFILE_SORTS = ("cumulative", "tottime", "calls")


def profile_workload(
    name: str, top: int = 25, sort: str = "cumulative"
) -> None:
    """Run one named bench workload under cProfile and print hot frames.

    The instrument behind every handler-plane claim: wall times say
    *whether* a change paid off, the frame table says *where* the time
    went — and whether the next optimisation target is the kernel, the
    protocol handlers, or the queue itself.  Prints the workload's wall
    time and result, then the ``top`` frames by ``sort`` order.
    """
    import cProfile
    import pstats

    if name not in PROFILE_WORKLOADS:
        raise ReproError(
            f"unknown workload {name!r}; "
            f"known: {', '.join(PROFILE_WORKLOADS)}"
        )
    if sort not in PROFILE_SORTS:
        raise ReproError(
            f"unknown sort {sort!r}; known: {', '.join(PROFILE_SORTS)}"
        )
    workload = PROFILE_WORKLOADS[name]
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = workload()
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
    """Execute every kernel benchmark and return the artifact payload.

    ``workers`` sizes the multi-worker leg of the parallel-sweep
    benchmark (default: all cores).
    """
    benchmarks: list[dict[str, Any]] = []

    def record(name: str, seconds: float, metric: str, value: Any) -> None:
        benchmarks.append(
            {
                "name": name,
                "wall_seconds": round(seconds, 6),
                "metric": metric,
                "value": value,
            }
        )

    seconds, fired = _time_best(engine_throughput, repeats)
    record("engine_event_throughput", seconds, "events_fired", fired)

    seconds_off, delivered = _time_best(lambda: broadcast_fanout(False), repeats)
    record("broadcast_fanout_trace_off", seconds_off, "delivered", delivered)

    seconds_on, delivered_on = _time_best(lambda: broadcast_fanout(True), repeats)
    record("broadcast_fanout_trace_on", seconds_on, "delivered", delivered_on)

    seconds_gated, delivered_gated = _time_best(
        lambda: broadcast_fanout(False, gated=True), repeats
    )
    record("broadcast_fanout_fault_gated", seconds_gated, "delivered", delivered_gated)
    if delivered_gated != delivered:
        raise AssertionError(
            "an idle fault plan changed the fan-out workload's deliveries — "
            "the fault gate is not transparent"
        )

    churn_seconds, ticks = _time_best(churn_ticks, repeats)
    record("churn_tick_cost", churn_seconds, "ticks", ticks)

    seconds, delivered_large = _time_best(broadcast_fanout_large, repeats)
    record("broadcast_fanout_large", seconds, "delivered", delivered_large)

    seconds, ticks_large = _time_best(churn_tick_large, repeats)
    record("churn_tick_large", seconds, "ticks", ticks_large)

    seconds, hot_fired = _time_best(scheduler_hot_loop, repeats)
    record("scheduler_hot_loop", seconds, "events_fired", hot_fired)

    seconds, meso_delivered = _time_best(mesoscale_million, repeats)
    record("mesoscale_million", seconds, "delivered", meso_delivered)

    keyed_single, (single_delivered, _) = _time_best(
        lambda: keyed_store_fanout(keys=1), repeats
    )
    record("keyed_store_fanout_single", keyed_single, "delivered", single_delivered)
    keyed_many, (keyed_delivered, keyed_digest_a) = _time_best(
        lambda: keyed_store_fanout(keys=8), repeats
    )
    record("keyed_store_fanout", keyed_many, "delivered", keyed_delivered)
    _, keyed_digest_b = keyed_store_fanout(keys=8)

    cluster_one, (cluster_one_delivered, _) = _time_best(
        lambda: cluster_fanout(shards=1), repeats
    )
    record("cluster_single", cluster_one, "delivered", cluster_one_delivered)
    cluster_many, (cluster_delivered, cluster_digest_a) = _time_best(
        lambda: cluster_fanout(shards=4), repeats
    )
    record("cluster_sharded", cluster_many, "delivered", cluster_delivered)
    _, cluster_digest_b = cluster_fanout(shards=4)

    migration_wall, (migration_delivered, migration_digest_a) = _time_best(
        migration_handoff, repeats
    )
    record("migration_handoff", migration_wall, "delivered", migration_delivered)
    _, migration_digest_b = migration_handoff()

    rebalance_wall, (rebalance_delivered, rebalance_digest_a) = _time_best(
        rebalance_storm, repeats
    )
    record("rebalance_storm", rebalance_wall, "delivered", rebalance_delivered)
    _, rebalance_digest_b = rebalance_storm()

    history = checker_history()
    ops = len(history)

    def unjudged() -> History:
        """The same operations in a history nobody has judged yet."""
        return history.sub_history(None)

    fast_reg, report = _time_best(
        lambda h: RegularityChecker(h).check(), repeats, unjudged
    )
    record("checker_regularity_fast", fast_reg, "reads_checked", report.checked_count)

    naive_reg, naive_report = _time_best(
        lambda h: RegularityChecker(h, paranoid=True).check(), repeats, unjudged
    )
    record(
        "checker_regularity_paranoid",
        naive_reg,
        "reads_checked",
        naive_report.checked_count,
    )

    fast_atom, atom = _time_best(find_new_old_inversions, repeats, unjudged)
    record("checker_atomicity_fast", fast_atom, "is_atomic", atom.is_atomic)

    naive_atom, naive_atom_report = _time_best(
        lambda h: find_new_old_inversions(h, paranoid=True), repeats, unjudged
    )
    record(
        "checker_atomicity_paranoid",
        naive_atom,
        "is_atomic",
        naive_atom_report.is_atomic,
    )
    if naive_atom_report.is_atomic != atom.is_atomic or (
        naive_report.is_safe != report.is_safe
    ):
        raise AssertionError(
            "fast and paranoid checkers disagree on the benchmark history — "
            "run the equivalence property suite"
        )

    sweep_workers = max(1, workers) if workers is not None else default_workers()
    serial_sweep, (serial_digest, sweep_cells) = _time_best(
        lambda: explore_sweep(workers=1), repeats
    )
    record("explore_sweep_serial", serial_sweep, "cells", sweep_cells)
    fallbacks_before = fallback_count()
    parallel_sweep, (parallel_digest, parallel_cells) = _time_best(
        lambda: explore_sweep(workers=sweep_workers), repeats
    )
    record("explore_sweep_parallel", parallel_sweep, "cells", parallel_cells)
    # Whether the parallel leg truly ran on a pool: in a pool-less
    # environment the Runner falls back to the serial path, and the
    # recorded speedup would otherwise masquerade as a regression.
    pool_used = sweep_workers > 1 and fallback_count() == fallbacks_before
    if (serial_digest, sweep_cells) != (parallel_digest, parallel_cells):
        raise AssertionError(
            "the parallel explorer sweep produced a different report than "
            "the serial one — the execution engine's ordering guarantee broke"
        )

    digest_a = history_digest()
    digest_b = history_digest()
    faulted_plan = FaultPlan.of(
        PartitionFault(start=30.0, end=45.0, group_a=frozenset({"p0001", "p0002"})),
        name="bench-faulted",
    )
    faulted_a = history_digest(faults=faulted_plan)
    faulted_b = history_digest(faults=faulted_plan)

    return {
        "artifact": "BENCH_kernel",
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "repeats": repeats,
        "history_ops": ops,
        "benchmarks": benchmarks,
        "parallel_workers": sweep_workers,
        "parallel_pool_used": pool_used,
        "derived": {
            "trace_off_speedup": round(seconds_on / seconds_off, 3),
            "fault_gate_overhead": round(seconds_gated / seconds_off, 3),
            "checker_regularity_speedup": round(naive_reg / fast_reg, 3),
            "checker_atomicity_speedup": round(naive_atom / fast_atom, 3),
            # what serving 8 registers instead of 1 costs end to end on
            # the same churning population — joins are batched over
            # keys, so this should stay near 1, not near 8.
            "keyed_fanout_overhead": round(keyed_many / keyed_single, 3),
            # the delivered-message reduction from partitioning the same
            # workload over 4 quorum shards at fixed total population —
            # deterministic (a message count, not a wall time) and
            # expected near the shard count, not near 1.
            "shard_scaling": round(cluster_one_delivered / cluster_delivered, 3),
            # serial wall time over multi-worker wall time for the same
            # judged sweep; ~1.0 (pool overhead only) on a single-core
            # host, >1 with real cores to fan out across.
            "parallel_explore_speedup": round(serial_sweep / parallel_sweep, 3),
        },
        "determinism": {
            "digest": digest_a,
            "stable_within_process": digest_a == digest_b,
            "faulted_digest": faulted_a,
            "faulted_stable_within_process": faulted_a == faulted_b,
            # The per-key checker digest of the fixed-seed keyed store
            # run: covers every operation's register key, so a keyed
            # scheduling/RNG regression is caught even when the classic
            # single-register digest is clean.
            "keyed_digest": keyed_digest_a,
            "keyed_stable_within_process": keyed_digest_a == keyed_digest_b,
            # The merged-history digest of the fixed-seed 4-shard
            # cluster run: covers every operation's shard id, so a
            # routing or shard-interleaving regression is caught even
            # when each single-system digest is clean.
            "cluster_digest": cluster_digest_a,
            "cluster_stable_within_process": cluster_digest_a == cluster_digest_b,
            # The merged-history digest of the fixed-seed migrating
            # cluster run: additionally covers every migration record
            # (phase, flip instant, retries), so a handoff-scheduling
            # regression is caught even when the non-migrating cluster
            # digest is clean.
            "migration_digest": migration_digest_a,
            "migration_stable_within_process": (
                migration_digest_a == migration_digest_b
            ),
            # The combined cluster-history + rebalancer digest of the
            # fixed-seed rebalance storm run: covers the policy's
            # samples, planned moves and their records, so a rebalancer
            # regression (different moves from the same loads) is
            # caught even when the scheduled-migration digest is clean.
            "rebalance_digest": rebalance_digest_a,
            "rebalance_stable_within_process": (
                rebalance_digest_a == rebalance_digest_b
            ),
        },
    }


def write_artifact(payload: dict[str, Any], out_path: str) -> None:
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


# ----------------------------------------------------------------------
# Artifact comparison (``repro bench --compare OLD.json``)
# ----------------------------------------------------------------------


def _normalized_deltas(
    old: dict[str, Any], new: dict[str, Any]
) -> list[tuple[str, float]]:
    """``(label, delta)`` per entry both artifacts know, regression-
    normalized: values above 1.0 are the regression direction — wall
    times growing, overhead ratios growing, speedup/scaling ratios
    *shrinking* (inverted).  The single source of the direction rule,
    consumed by both :func:`compare_artifacts` (flagging) and
    :func:`worst_delta` (the one-line summary), so the two can never
    name different culprits.
    """
    deltas: list[tuple[str, float]] = []
    old_walls = {b["name"]: b["wall_seconds"] for b in old.get("benchmarks", [])}
    for bench in new.get("benchmarks", []):
        old_wall = old_walls.get(bench["name"])
        if old_wall is None:
            continue
        ratio = bench["wall_seconds"] / old_wall if old_wall > 0 else float("inf")
        deltas.append((bench["name"], ratio))
    old_derived = old.get("derived", {})
    for name, new_value in new.get("derived", {}).items():
        old_value = old_derived.get(name)
        if old_value is None or old_value <= 0:
            continue
        drift = new_value / old_value
        if "overhead" in name:
            # An overhead collapsing to (or below) zero is an
            # improvement; growth is the regression direction.
            deltas.append((f"derived.{name}", drift))
        else:
            # A speedup/scaling ratio collapsing to zero is a total
            # regression, not a skippable entry.
            deltas.append(
                (
                    f"derived.{name}",
                    float("inf") if new_value <= 0 else 1.0 / drift,
                )
            )
    return deltas


def compare_artifacts(
    old: dict[str, Any], new: dict[str, Any], threshold: float = 0.5
) -> tuple[list[str], list[str]]:
    """Diff two bench artifacts: per-workload wall times, derived ratios.

    Returns ``(lines, regressions)``: human-readable delta lines for
    every workload/ratio present in both artifacts, and the subset
    flagged as regressions — a wall time more than ``threshold``
    (fractionally) slower than the old artifact, or a derived speedup
    ratio more than ``threshold`` below it.  Workloads only one side
    knows are reported but never flagged (artifacts grow across PRs).
    Determinism digests are compared informationally: a digest change
    is only legal when a PR intentionally changes scheduling/RNG and
    says so, but that judgement belongs to the reviewer, not to the
    threshold.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    lines: list[str] = []
    regressions: list[str] = []
    # Regression-normalized deltas (wall growth, overhead growth,
    # speedup shrinkage — all mapped above 1.0): the shared direction
    # rule, so flagging here always agrees with worst_delta's summary.
    normalized = dict(_normalized_deltas(old, new))
    old_walls = {b["name"]: b["wall_seconds"] for b in old.get("benchmarks", [])}
    new_walls = {b["name"]: b["wall_seconds"] for b in new.get("benchmarks", [])}
    for name, new_wall in new_walls.items():
        old_wall = old_walls.get(name)
        if old_wall is None:
            lines.append(f"{name}: new workload ({new_wall * 1e3:.2f} ms), no baseline")
            continue
        line = (
            f"{name}: {old_wall * 1e3:.2f} ms -> {new_wall * 1e3:.2f} ms "
            f"({normalized[name]:.2f}x)"
        )
        if normalized[name] > 1.0 + threshold:
            line += f"  REGRESSION (> {1.0 + threshold:.2f}x)"
            regressions.append(name)
        lines.append(line)
    for name in sorted(set(old_walls) - set(new_walls)):
        lines.append(f"{name}: workload dropped (was {old_walls[name] * 1e3:.2f} ms)")
    old_derived = old.get("derived", {})
    new_derived = new.get("derived", {})
    for name, new_value in new_derived.items():
        old_value = old_derived.get(name)
        if old_value is None:
            lines.append(f"derived.{name}: new ratio ({new_value}), no baseline")
            continue
        line = f"derived.{name}: {old_value} -> {new_value}"
        delta = normalized.get(f"derived.{name}")
        if delta is not None and delta > 1.0 + threshold:
            line += "  REGRESSION"
            regressions.append(f"derived.{name}")
        lines.append(line)
    old_det = old.get("determinism", {})
    new_det = new.get("determinism", {})
    for field in (
        "digest",
        "faulted_digest",
        "keyed_digest",
        "cluster_digest",
        "migration_digest",
        "rebalance_digest",
    ):
        if field in old_det and field in new_det:
            same = old_det[field] == new_det[field]
            lines.append(
                f"determinism.{field}: "
                + ("unchanged" if same else
                   f"CHANGED {old_det[field][:16]}… -> {new_det[field][:16]}…")
            )
    return lines, regressions


def worst_delta(
    old: dict[str, Any], new: dict[str, Any]
) -> tuple[str, float] | None:
    """The single worst regression-direction delta between two artifacts.

    Scans workload wall times (higher is worse) and derived ratios
    (direction by kind: overheads up, speedups/scalings down) present
    in both artifacts, and returns ``(label, delta)`` where ``delta``
    is normalized so that values above 1.0 are regressions — e.g.
    ``("churn_tick_cost", 1.42)`` means the worst offender is 42%
    worse than the baseline.  ``None`` when nothing is comparable.
    The one-line PASS/FAIL summary of ``repro bench --compare`` prints
    exactly this; it shares :func:`_normalized_deltas` with
    :func:`compare_artifacts`, so the summary's culprit always agrees
    with the REGRESSED list printed beside it.
    """
    deltas = _normalized_deltas(old, new)
    if not deltas:
        return None
    return max(deltas, key=lambda pair: pair[1])


def run_and_report(
    out_path: str = ARTIFACT_NAME,
    repeats: int = 3,
    workers: int | None = None,
    compare_to: str | None = None,
    threshold: float = 0.5,
) -> int:
    """CLI body shared by ``python -m repro bench`` and run_bench.py.

    ``compare_to`` diffs the fresh run against a committed artifact
    (e.g. the repository's ``BENCH_kernel.json``) and exits non-zero if
    any workload regressed past ``threshold``.
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
    write_artifact(payload, out_path)
    width = max(len(b["name"]) for b in payload["benchmarks"])
    for bench in payload["benchmarks"]:
        print(
            f"{bench['name']:<{width}}  {bench['wall_seconds'] * 1e3:9.2f} ms  "
            f"({bench['metric']}={bench['value']})"
        )
    for key, value in payload["derived"].items():
        print(f"{key:<{width}}  {value:9.2f} x")
    stable = payload["determinism"]["stable_within_process"]
    faulted_stable = payload["determinism"]["faulted_stable_within_process"]
    keyed_stable = payload["determinism"]["keyed_stable_within_process"]
    cluster_stable = payload["determinism"]["cluster_stable_within_process"]
    migration_stable = payload["determinism"]["migration_stable_within_process"]
    rebalance_stable = payload["determinism"]["rebalance_stable_within_process"]
    print(f"determinism digest {payload['determinism']['digest'][:16]}… "
          f"{'STABLE' if stable else 'UNSTABLE'}")
    print(f"faulted digest     {payload['determinism']['faulted_digest'][:16]}… "
          f"{'STABLE' if faulted_stable else 'UNSTABLE'}")
    print(f"keyed digest       {payload['determinism']['keyed_digest'][:16]}… "
          f"{'STABLE' if keyed_stable else 'UNSTABLE'}")
    print(f"cluster digest     {payload['determinism']['cluster_digest'][:16]}… "
          f"{'STABLE' if cluster_stable else 'UNSTABLE'}")
    print(f"migration digest   {payload['determinism']['migration_digest'][:16]}… "
          f"{'STABLE' if migration_stable else 'UNSTABLE'}")
    print(f"rebalance digest   {payload['determinism']['rebalance_digest'][:16]}… "
          f"{'STABLE' if rebalance_stable else 'UNSTABLE'}")
    print(f"wrote {out_path}")
    if not (
        stable
        and faulted_stable
        and keyed_stable
        and cluster_stable
        and migration_stable
        and rebalance_stable
    ):
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
