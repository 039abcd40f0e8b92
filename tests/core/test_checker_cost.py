"""What judging a closed history costs, in Python calls per operation.

Regularity, atomicity, liveness and the digest each touch an operation
once, in their own loop: the only Python frame per operation is the
judgement tuple of a read (and the inversion tuple of an inverted
read).  ``sys.setprofile`` counts every Python-level ``call`` event
across the four phases — deterministic for a fixed seed, so the bound
holds without timing noise.  The history is the read-heavy synchronous
run of ``history_check_200k`` on a shorter horizon (n = 50, churn 0.02,
seed 0, about 10 k local reads); it measures 1.22 calls per operation,
against 10.2 when every read was judged through a helper and every
phase re-read the handle's properties.
"""

from __future__ import annotations

import sys

from repro.core.history import operation_digest
from repro.workloads.generators import read_heavy_plan
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import make_system

DELTA = 5.0
HORIZON = 65.0
#: The ratchet: calls per operation across the four phases.
MAX_CALLS_PER_OPERATION = 3.0


def test_judging_a_closed_history_costs_at_most_three_calls_per_operation():
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
