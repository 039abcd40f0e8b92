"""What a planned read costs the drive, in Python calls per issued read.

A planned read without a named reader is one call chain: the plan's
series calls the driver's ``_fire``, which draws an active process in
place from the membership's cached active list
(``Membership.draw_active``, the ``Random.choice`` draw inlined), calls
the node's ``read`` — a synchronous read builds its handle done, with
no generator — and records the handle in the history.  The drawn
process is present and active by construction, so nothing asks again.
``sys.setprofile`` counts every Python-level ``call`` event over
``run_until`` — deterministic for a fixed seed, so the bound holds
without timing noise.  The run is the one
``tests/core/test_checker_cost.py`` judges: the read-heavy synchronous
run of ``history_check_200k`` on a shorter horizon (n = 50, churn 0.02,
seed 0, about 10 k local reads, every other event of the drive counted
too).  It measures 9.2 calls per issued read: 18.2 when the read ran as
a generator body under ``run_operation`` (``resolve``, the body,
``value``, ``_position``, ``_complete``), the draw entered
``Random.choice`` and ``_randbelow`` and a closure dispatched each op;
28.4 when the driver also copied the active list, re-checked the drawn
pid's presence, looked its node up through ``system.node`` and asked
``is_active`` three times, and every completed handle entered
``_fire_callbacks``.
"""

from __future__ import annotations

import sys

from repro.workloads.generators import read_heavy_plan
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import make_system

DELTA = 5.0
HORIZON = 65.0
#: The ratchet: calls over the drive per issued read.
MAX_CALLS_PER_READ = 11.0


def test_a_planned_read_costs_at_most_eleven_calls_of_the_drive():
    system = make_system(n=50, delta=DELTA, seed=0, trace=False)
    system.attach_churn(rate=0.02)
    plan = read_heavy_plan(
        start=1.0,
        end=HORIZON - 3.0 * DELTA,
        write_period=2.0 * DELTA,
        read_rate=200.0,
        rng=system.rng.stream("perf.plan"),
    )
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
    reads = driver.stats.reads_issued
    assert 9_000 < reads < 11_000
    assert driver.stats.reads_skipped == 0
    per_read = calls / reads
    assert per_read <= MAX_CALLS_PER_READ, (
        f"{calls} calls over {reads} issued reads = {per_read:.2f} per read"
    )
