"""What judging a closed history costs, in Python calls per operation
and in memory per read.

Regularity, atomicity, liveness and the digest each touch an operation
once, in their own loop, and a valid read leaves no Python frame behind:
the frames per operation are liveness's latency sample of each
operation with an interval (a born-complete read's is a count, grown
once per run of them).  ``sys.setprofile``
counts every Python-level ``call`` event across the four phases —
deterministic for a fixed seed, so the bound holds without timing
noise.  The history is the read-heavy synchronous run of
``history_check_200k`` on a shorter horizon (n = 50, churn 0.02, seed 0,
about 10 k local reads); it measures 0.08 calls per operation (0.10
while writes and joins were handles, the sweeps and the digest taking
them one by one; 0.09 with the samples a list), against 0.23 with a
handle per read, 1.22
with a judgement tuple per read and 10.2 when every read was judged
through a helper and every phase re-read the handle's properties.

A judged pass also keeps its verdicts, not a record per read: the
``tracemalloc`` peak across regularity, atomicity and liveness on the
same history is held to 3.5 bytes per completed read (2.60 measured:
each inversion witness its later row number, each run of witnesses
sharing an earlier read that read once, the zero-latency rows one
count, and a slice per run of reads between two interval rows; 2.14
while writes and joins were handles; 16.5 with a witness's two row numbers and two write indexes in
four columns and a latency sample per row, 7.6 of it over the two
sweeps alone; 299.6 over the sweeps with a judgement per read shared by
both checkers and two decorated, sorted copies of the reads).
"""

from __future__ import annotations

import sys
import tracemalloc

from repro.core.history import operation_digest
from repro.workloads.generators import read_heavy_plan
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import make_system

DELTA = 5.0
HORIZON = 65.0
#: The ratchets: calls per operation across the four phases, and traced
#: bytes per completed read at the peak of the two sweeps and liveness.
MAX_CALLS_PER_OPERATION = 1.0
MAX_PEAK_BYTES_PER_READ = 3.5


def closed_read_heavy_run():
    system = make_system(n=50, delta=DELTA, seed=0, trace=False)
    system.attach_churn(rate=0.02)
    plan = read_heavy_plan(
        start=1.0,
        end=HORIZON - 3.0 * DELTA,
        write_period=2.0 * DELTA,
        read_rate=200.0,
        rng=system.rng.stream("perf.plan"),
    )
    WorkloadDriver(system).install(plan)
    system.run_until(HORIZON)
    history = system.close()
    assert 9_000 < len(history.reads()) < 11_000
    return system, history


def test_judging_a_closed_history_costs_at_most_one_call_per_operation():
    system, history = closed_read_heavy_run()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        safety = system.check_safety()
        atomicity = system.check_atomicity()
        liveness = system.check_liveness(grace=3.0 * DELTA)
        operation_digest(history)
    finally:
        sys.setprofile(None)
    assert safety.is_safe and liveness.is_live
    assert atomicity.inversions  # the per-inversion tuples are counted too
    per_operation = calls / len(history)
    assert per_operation <= MAX_CALLS_PER_OPERATION, (
        f"{calls} calls over {len(history)} operations = "
        f"{per_operation:.2f} per operation"
    )


def test_judging_holds_no_per_read_state():
    system, history = closed_read_heavy_run()
    completed = sum(1 for op in history.reads() if op.done)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        safety = system.check_safety()
        atomicity = system.check_atomicity()
        liveness = system.check_liveness(grace=3.0 * DELTA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert safety.is_safe and atomicity.inversions and liveness.is_live
    assert len(liveness.latencies["read"]) == completed
    per_read = (peak - base) / completed
    assert per_read <= MAX_PEAK_BYTES_PER_READ, (
        f"{peak - base} B at the peak over {completed} completed reads = "
        f"{per_read:.1f} B per read"
    )
