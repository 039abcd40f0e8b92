"""One judged run in this process: import → build → attach churn →
plan → install → drive to the horizon → close → check.

``python perf/judged.py WORKLOAD SEED SCALE PROFILE`` prints the run's
times, counts, digest and verdicts as one JSON object on the last line
of standard output.  :mod:`run` starts it as a fresh child for every
repeat, so ``import repro`` is paid — and timed — every time, and no
repeat inherits another's heap.

Spans are taken here, around the public calls into each layer; nothing
inside ``repro`` is instrumented.  With ``PROFILE`` = 1 everything after
the import sits under ``cProfile`` and the result also carries the
per-layer fold.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import sys
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Iterator

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")

#: The spans summed into ``setup_s``.
SETUP_SPANS = (
    "runtime.import_s",
    "runtime.build_s",
    "churn.attach_s",
    "workloads.plan_s",
    "workloads.install_s",
)
#: The spans under ``cluster.check_s`` on the cluster workload.
CHECK_SPANS = (
    "core.regularity_s",
    "core.atomicity_s",
    "core.liveness_s",
    "core.digest_s",
)
#: Every leaf span a result reports besides the drive (0.0 when the
#: workload has no such phase).
LEAF_SPANS = (*SETUP_SPANS, "core.close_s", *CHECK_SPANS)
FAULT_COUNTERS = ("lost", "partition_dropped", "deferred", "spiked", "crashes_fired")


#: The host-speed reference: a fixed loop timed every few milliseconds
#: while the run goes on.  A shared sandbox slows a process down by tens
#: of per cent for anything from milliseconds to minutes; the loop slows
#: down with it, so ``seconds x REFERENCE_PROBE_S / probe seconds`` is
#: what a stretch of the run would have taken on a host that runs the
#: loop at its nominal speed.  Every reported time is corrected this way
#: and the raw seconds are kept beside it.  The loop lives here, not in
#: ``repro``, so no change to the program can move the yardstick.
PROBE_ITERATIONS = 3_000
#: The loop's undisturbed time on the box the horizons were sized on.
REFERENCE_PROBE_S = 0.003
#: A probe interrupts the run this often (the noise is that fast: the
#: mean of a phase's two ends corrects a one-second phase to +-15 %,
#: a probe every 20 ms to +-3 %).
PROBE_PERIOD_S = 0.020


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, by: int) -> int:
        return self.value + by


def probe() -> float:
    """Seconds this host takes for the reference loop right now.

    Small objects, a heap of tuples, a dict and method calls: the mix
    the simulator is made of, so that contention slows both alike (a
    bare arithmetic loop under-corrects by half).  The collector is
    held off meanwhile: a collection set off by the loop's allocations
    would cost in proportion to the *program's* heap, and the yardstick
    would shrink as the population grows.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap: list = []
    table = {}
    for i in range(PROBE_ITERATIONS):
        cell = _Cell(i)
        heappush(heap, ((i * 7919) % 10007, i, cell))
        table[i & 1023] = (i, cell)
        if i & 1:
            heappop(heap)[2].bump(i)
    seconds = time.perf_counter() - start
    del heap, table
    if collecting:
        gc.enable()
    return seconds


class HostClock:
    """Three clocks that stop while the probe runs: raw seconds, CPU
    seconds and host-speed-corrected seconds.

    :meth:`tick` takes a probe and advances the clocks over the stretch
    since the previous one, correcting it by the mean of the two
    readings.  An interval timer ticks every :data:`PROBE_PERIOD_S`
    (``SIGALRM`` runs the handler between two bytecodes of whatever the
    run is doing), and :class:`Spans` ticks at both ends of every phase,
    so a phase's time is a difference of clock readings.

    A traced run has no timer, only the ticks at the ends of phases.
    The profiler is paused around every probe — the yardstick must be
    neither slowed by it nor folded — and pausing it deep inside the
    program would make it forget every frame then on the stack: the
    event loop's self time would vanish from the fold.
    """

    def __init__(self, timer: bool) -> None:
        self.raw_s = self.cpu_s = self.corrected_s = 0.0
        self.timer = timer
        self.profiler: Any = None
        self._busy = False
        self._reading: float | None = None
        self._mark = self._cpu_mark = 0.0
        self._old_handler: Any = None

    def tick(self, *_signal: Any) -> None:
        if self._busy:  # the timer fired inside a tick: that tick will do
            return
        self._busy = True
        now, cpu = time.perf_counter(), time.process_time()
        if self.profiler is not None:
            self.profiler.disable()
        reading = probe()
        if self.profiler is not None:
            self.profiler.enable()
        if self._reading is not None:
            elapsed = now - self._mark
            self.raw_s += elapsed
            self.cpu_s += cpu - self._cpu_mark
            self.corrected_s += (
                elapsed * REFERENCE_PROBE_S / ((self._reading + reading) / 2.0)
            )
        self._reading = reading
        self._mark, self._cpu_mark = time.perf_counter(), time.process_time()
        self._busy = False

    def __enter__(self) -> "HostClock":
        if self.timer:
            self._old_handler = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)


class Spans:
    """Phase spans of one run: name, start, end, parent id, run id.

    A *leaf* span is one public call into ``repro`` and carries its
    raw, CPU and corrected seconds off the :class:`HostClock`; a group
    span only gives its children a parent.
    """

    def __init__(self, run_id: str, clock: HostClock) -> None:
        self.run_id = run_id
        self.clock = clock
        self.records: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def _span(self, name: str, leaf: bool) -> Iterator[None]:
        record: dict[str, Any] = {
            "run": self.run_id,
            "id": len(self.records),
            "parent": self._open[-1] if self._open else None,
            "name": name,
        }
        self.records.append(record)
        self._open.append(record["id"])
        clock = self.clock
        if leaf:
            clock.tick()
            before = (clock.raw_s, clock.cpu_s, clock.corrected_s)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if leaf:
                clock.tick()
                record["raw_s"] = clock.raw_s - before[0]
                record["cpu_s"] = clock.cpu_s - before[1]
                record["corrected_s"] = clock.corrected_s - before[2]

    def group(self, name: str) -> Any:
        return self._span(name, leaf=False)

    def __call__(self, name: str) -> Any:
        return self._span(name, leaf=True)

    def total(self, field: str, name: str | None = None) -> float:
        """Sum of ``field`` (``raw_s``, ``cpu_s``, ``corrected_s``) over
        the leaf spans called ``name`` (all leaves when ``None``)."""
        return sum(
            r[field]
            for r in self.records
            if field in r and name in (None, r["name"])
        )


def judged_run(name: str, seed: int, scale: float, profile: bool) -> dict[str, Any]:
    from workloads import BY_NAME, DELTA, IMPORTS

    workload = BY_NAME[name]
    horizon = workload.horizon * scale
    clock = HostClock(timer=not profile)
    spans = Spans(
        f"{name}-s{seed}-x{scale:g}-{'traced' if profile else 'plain'}", clock
    )
    with clock, spans.group("run"):
        with spans("runtime.import_s"):
            for module in IMPORTS:
                importlib.import_module(module)
        if profile:
            # After the import: executing a module's body is not that
            # layer at work, and ``runtime.import_s`` already times it.
            import cProfile

            clock.profiler = cProfile.Profile()
            clock.profiler.enable()
        with spans("runtime.build_s"):
            system = workload.build(seed, horizon)
        if workload.attach_churn is not None:
            with spans("churn.attach_s"):
                workload.attach_churn(system)
        with spans("workloads.plan_s"):
            plan = workload.plan(system, horizon)
        with spans("workloads.install_s"):
            driver, rebalancer = workload.install(system, plan, horizon)
        with spans("drive_s"):
            system.run_until(horizon)
        with spans("core.close_s"):
            history = system.close()
        grace = workload.grace_deltas * DELTA
        atomicity = None
        with spans.group("cluster.check_s" if workload.cluster else "check"):
            with spans("core.regularity_s"):
                safety = system.check_safety()
            if workload.check_atomicity:
                with spans("core.atomicity_s"):
                    atomicity = system.check_atomicity()
            with spans("core.liveness_s"):
                liveness = system.check_liveness(grace=grace)
            with spans("core.digest_s"):
                digest = _digest(workload.cluster, history, rebalancer)
    if clock.profiler is not None:
        clock.profiler.disable()

    counts = _counts(workload, system, driver, rebalancer, plan, history,
                     safety, atomicity, liveness)
    completed = liveness.completed
    stuck = len(liveness.stuck)
    failed = stuck + safety.violation_count + counts["cluster.handoffs_unresolved"]
    if workload.atomic:
        failed += counts["core.inversions"]
    times = {}
    for field in ("corrected_s", "raw_s"):
        by_span = {span: spans.total(field, span) for span in LEAF_SPANS}
        by_span["cluster.check_s"] = (
            sum(by_span[span] for span in CHECK_SPANS) if workload.cluster else 0.0
        )
        by_span.update(
            wall_s=spans.total(field),
            setup_s=sum(by_span[span] for span in SETUP_SPANS),
            drive_s=spans.total(field, "drive_s"),
        )
        times[field] = by_span
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "times": times["corrected_s"],
        "raw_times": times["raw_s"],
        "cpu_s": spans.total("cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
        "digest": digest,
        "attempted": completed + stuck,
        "failed": failed,
        "spans": spans.records,
    }
    if clock.profiler is not None:
        import repro
        from fold import fold

        result["fold"] = fold(
            clock.profiler.getstats(), os.path.dirname(repro.__file__), PERF_DIR
        )
    return result


def _digest(cluster: bool, history: Any, rebalancer: Any) -> str:
    if not cluster:
        from repro.core.history import operation_digest

        return operation_digest(history)
    from repro.cluster.history import cluster_digest

    combined = cluster_digest(history) + rebalancer.digest()
    return hashlib.sha256(combined.encode("ascii")).hexdigest()


def _counts(
    workload: Any, system: Any, driver: Any, rebalancer: Any, plan: list,
    history: Any, safety: Any, atomicity: Any, liveness: Any,
) -> dict[str, float]:
    """The public counters of every layer; each must repeat exactly."""
    from repro.analysis.stats import percentile
    from workloads import DELTA

    def latency(kind: str, q: float) -> float:
        """A simulated-latency percentile in units of δ (0 if no sample)."""
        samples = liveness.latencies.get(kind)
        return percentile(samples, q) / DELTA if samples else 0.0

    shards = system.shards if workload.cluster else (system,)
    sent = sum(s.network.sent_count for s in shards)
    delivered = sum(s.network.delivered_count for s in shards)
    churns = [s.churn for s in shards if s.churn is not None]
    fault_totals = dict.fromkeys(FAULT_COUNTERS, 0)
    for shard in shards:
        if shard.faults is not None:
            for cause, count in shard.faults.counters().items():
                fault_totals[cause] += count
    done = {"read": 0, "write": 0, "join": 0}
    for op in history:
        if op.done:
            done[op.kind] += 1
    stuck_joins = sum(1 for s in liveness.stuck if s.operation.kind == "join")
    stats = driver.stats
    handoffs = rebalancer.summary() if rebalancer is not None else {}
    counts: dict[str, float] = {
        "sim.events_fired": system.engine.fired_count,
        "sim.pending_at_end": system.engine.pending_count,
        "net.sent": sent,
        "net.delivered": delivered,
        "net.dropped": sum(s.network.dropped_count for s in shards),
        "net.faulted": sum(s.network.faulted_count for s in shards),
        "net.broadcasts": sum(s.broadcast.broadcast_count for s in shards),
        "net.msgs_per_op": sent / max(1, liveness.completed),
        "net.delivered_share": delivered / max(1, sent),
        "protocols.reads_done": done["read"],
        "protocols.writes_done": done["write"],
        "protocols.joins_done": done["join"],
        "protocols.joins_eligible": done["join"] + stuck_joins,
        "protocols.read_latency_p50_delta": latency("read", 50.0),
        "protocols.write_latency_p50_delta": latency("write", 50.0),
        "protocols.join_latency_p99_delta": latency("join", 99.0),
        "churn.ticks": sum(c.ticks_executed for c in churns),
        "churn.joins": sum(c.joins_executed for c in churns),
        "churn.leaves": sum(c.leaves_executed for c in churns),
        "churn.shortfall": sum(c.shortfall for c in churns),
        "core.ops_recorded": len(history),
        "core.reads_checked": safety.checked_count,
        "core.violations": safety.violation_count,
        "core.inversions": len(atomicity.inversions) if atomicity is not None else 0,
        "core.stuck": len(liveness.stuck),
        "workloads.ops_planned": len(plan),
        "workloads.ops_skipped": stats.reads_skipped + stats.writes_skipped,
        "cluster.handoffs_planned": handoffs.get("planned", 0),
        "cluster.handoffs_committed": handoffs.get("committed", 0),
        "cluster.handoffs_aborted": handoffs.get("aborted", 0),
        "cluster.handoffs_unresolved": handoffs.get("unresolved", 0),
        "cluster.writes_deferred": system.writes_deferred if workload.cluster else 0,
        "cluster.writes_dropped": system.writes_dropped if workload.cluster else 0,
        "cluster.final_imbalance": handoffs.get("final_imbalance", 0.0),
    }
    for cause, count in fault_totals.items():
        counts[f"faults.{cause}"] = count
    return counts


def main(argv: list[str]) -> int:
    name, seed, scale, profile = argv
    sys.path.insert(0, SRC_DIR)
    result = judged_run(name, int(seed), float(scale), profile == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
