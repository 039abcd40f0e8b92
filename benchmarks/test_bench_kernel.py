"""Micro-benchmarks of the simulation substrate.

Not a paper artifact — these track the cost of the machinery every
experiment stands on (event throughput, broadcast fan-out, protocol
operation cost, checker sweeps fast vs. paranoid), so regressions in
the simulator itself are visible separately from the experiments.

``python -m repro bench`` (or ``benchmarks/run_bench.py``) runs the
same workloads headless and writes a ``BENCH_kernel.json`` artifact.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    _time_best,
    broadcast_fanout,
    checker_history,
    churn_ticks,
    cluster_fanout,
    engine_throughput,
)
from repro.core.checker import RegularityChecker, find_new_old_inversions
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem


@pytest.fixture(scope="module")
def two_k_history():
    """The fixed-seed ~2k-op history, built once for all checker cases
    (it is closed and read-only, so sharing it is safe)."""
    return checker_history()


def test_bench_engine_event_throughput(benchmark):
    """Schedule and fire 10k no-op events (same workload as repro.bench)."""
    fired = benchmark(engine_throughput)
    assert fired == 10_000


def test_bench_broadcast_fanout(benchmark):
    """One hundred broadcasts into a 50-process system, tracing off
    (same workload as repro.bench)."""
    delivered = benchmark(lambda: broadcast_fanout(False))
    assert delivered >= 100 * 50


def test_bench_sync_read_cost(benchmark):
    """10k local reads on the synchronous protocol (the 'free' path)."""
    system = DynamicSystem(
        SystemConfig(n=20, delta=5.0, protocol="sync", seed=1, trace=False)
    )
    reader = system.seed_pids[3]

    def run() -> int:
        for _ in range(10_000):
            system.read(reader)
        return 10_000

    assert benchmark(run) == 10_000


def test_bench_es_quorum_read_cost(benchmark):
    """One hundred quorum reads on the ES protocol."""

    def run() -> int:
        system = DynamicSystem(
            SystemConfig(n=11, delta=5.0, protocol="es", seed=1, trace=False)
        )
        done = 0
        for _ in range(100):
            handle = system.read(system.seed_pids[4])
            system.run_for(15.0)
            done += handle.done
        return done

    assert benchmark(run) == 100


def test_bench_churn_tick_cost(benchmark):
    """300 ticks of 10%-churn bookkeeping on a 100-process system
    (same workload as repro.bench)."""
    assert benchmark(churn_ticks) == 300


def _benchmark_unjudged(benchmark, history, check):
    """Benchmark ``check`` on a history nobody has judged yet: a closed
    history shares its read judgements between checkers, so rounds on
    the same object would time a dict hit."""
    return benchmark.pedantic(
        check, setup=lambda: ((history.sub_history(None),), {}), rounds=20
    )


def test_bench_checker_cost(benchmark, two_k_history):
    """Regularity-check a history with ~2k operations (fast sweep).

    Uses the same workload as ``repro.bench`` and the paranoid sibling
    below, so the speedup comparison is apples to apples."""
    report = _benchmark_unjudged(
        benchmark, two_k_history, lambda h: RegularityChecker(h).check()
    )
    assert report.is_safe
    assert report.checked_count >= 1_000


def test_bench_checker_cost_paranoid(benchmark, two_k_history):
    """The same ~2k-op history under the brute-force reference oracle."""
    report = _benchmark_unjudged(
        benchmark,
        two_k_history,
        lambda h: RegularityChecker(h, paranoid=True).check(),
    )
    assert report.is_safe


def test_bench_atomicity_cost(benchmark, two_k_history):
    """Inversion sweep (O(R log R)) on the ~2k-op history."""
    report = _benchmark_unjudged(benchmark, two_k_history, find_new_old_inversions)
    assert report.safety.is_safe


def test_bench_broadcast_fanout_trace_on(benchmark):
    """The fan-out workload with the flight recorder on — the delta
    against ``test_bench_broadcast_fanout`` is the cost of tracing,
    which the trace-off fast path removes entirely.  Shares the
    workload with ``repro.bench`` so pytest and ``BENCH_kernel.json``
    measure the same thing."""
    delivered = benchmark(lambda: broadcast_fanout(True))
    assert delivered >= 100 * 50


def test_bench_broadcast_fanout_fault_gated(benchmark):
    """The fan-out workload with an installed-but-idle fault plan: every
    message pays the fault gate, none is touched.  The delta against
    ``test_bench_broadcast_fanout`` is the cost of having the gate
    open; an idle plan must not change what is delivered."""
    delivered = benchmark(lambda: broadcast_fanout(False, gated=True))
    assert delivered == broadcast_fanout(False)


def test_bench_point_to_point_send_trace_off(benchmark):
    """10k raw sends with tracing off: no trace kwargs, no label f-strings.

    The destination has departed, so every delivery attempt is dropped
    at the presence gate — the benchmark isolates the send/schedule/
    deliver machinery from protocol handler cost.
    """
    system = DynamicSystem(
        SystemConfig(n=10, delta=5.0, protocol="sync", seed=1, trace=False)
    )
    a, b = system.seed_pids[0], system.seed_pids[1]
    system.leave(b)

    def run() -> int:
        for _ in range(10_000):
            system.network.send_payload(a, b, None)
        system.run_for(20.0)
        return 10_000

    assert benchmark(run) == 10_000
    assert system.network.dropped_count >= 10_000


def test_bench_cluster_fanout_sharded(benchmark):
    """The 4-shard cluster workload (same as repro.bench): churn, Zipf
    hot-shard traffic, merged checking at close."""
    delivered, digest = benchmark(lambda: cluster_fanout(shards=4))
    assert delivered > 0
    assert len(digest) == 64


def test_cluster_shard_scaling_guard():
    """Perf guard: partitioning the cluster workload over 4 shards must
    cut total delivered messages by at least 2x at fixed population —
    the deterministic message-count claim behind derived.shard_scaling
    (expected near the shard count; 2x is the loose floor)."""
    single_delivered, _ = cluster_fanout(shards=1)
    sharded_delivered, _ = cluster_fanout(shards=4)
    scaling = single_delivered / sharded_delivered
    assert scaling >= 2.0, (
        f"expected >=2x delivered-message reduction from 4 shards, "
        f"got {scaling:.2f}x ({single_delivered} -> {sharded_delivered})"
    )


def test_checker_fast_beats_naive_by_3x(two_k_history):
    """Perf guard (not a benchmark fixture): the full checker pipeline
    — regularity plus inversion detection — must be at least 3× faster
    than the retained O(R×W)/O(R²) oracles on the ~2k-op history.
    Uses the same best-of-N timing harness as BENCH_kernel.json."""

    def unjudged():
        return two_k_history.sub_history(None)

    fast, _ = _time_best(find_new_old_inversions, 3, unjudged)
    naive, _ = _time_best(
        lambda h: find_new_old_inversions(h, paranoid=True), 3, unjudged
    )
    assert naive >= 3.0 * fast, (
        f"expected >=3x speedup, got {naive / fast:.2f}x "
        f"(fast {fast * 1e3:.2f}ms, naive {naive * 1e3:.2f}ms)"
    )
