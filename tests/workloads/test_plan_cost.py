"""What a planned read costs the plan build, in Python calls per op.

``read_heavy_plan`` is the canonical Section 3.3 workload, and the
judged ``history_check_200k`` run builds ~77 k of its ops before the
drive starts.  The plan is two columns (``workloads.schedule.Plan``):
an ``array('d')`` of instants and a list holding ``None`` for a default
read and the op object for a write.  So a planned read is its 8 B
instant and an 8 B slot, and building it enters no Python frame: the
Poisson gap is drawn inline (``-log(1.0 - rng.random()) / rate``, the
body of ``Random.expovariate``) and appended to the array, and the
writes are merged in by slices.  The build's frames are per plan and
per write, not per read.

``sys.setprofile`` counts every Python-level ``call`` event over the
build — deterministic for a fixed seed, so the bound holds without
timing noise.  The plan has the parameters of the one
``test_read_path_cost.py`` drives (about 10 k reads, a write every 2δ).
It measures 0.0024 calls per planned op: 1.002 when every read was a
``ReadOp`` built by its hand-written ``__init__``, 2.001 when each gap
was also an ``rng.expovariate`` frame.  No frame of generated code
(``co_filename`` ``"<string>"``, a dataclass-generated ``__init__``)
may be entered while the plan is built.  What a planned read costs in
bytes is ``tests/runtime/test_footprint.py``'s.
"""

from __future__ import annotations

import random
import sys

from repro.workloads.generators import read_heavy_plan

DELTA = 5.0
HORIZON = 65.0
#: The ratchet: calls over the build per planned op.
MAX_CALLS_PER_OP = 0.01


def test_a_planned_read_costs_no_call_of_the_build():
    rng = random.Random(0)
    calls = generated = 0

    def count(frame, event, arg):
        nonlocal calls, generated
        if event == "call":
            calls += 1
            generated += frame.f_code.co_filename == "<string>"

    sys.setprofile(count)
    try:
        plan = read_heavy_plan(
            start=1.0,
            end=HORIZON - 3.0 * DELTA,
            write_period=2.0 * DELTA,
            read_rate=200.0,
            rng=rng,
        )
    finally:
        sys.setprofile(None)
    assert 9_000 < len(plan) < 11_000
    per_op = calls / len(plan)
    assert per_op <= MAX_CALLS_PER_OP, (
        f"{calls} calls over {len(plan)} planned ops = {per_op:.4f} per op"
    )
    assert generated == 0, (
        f"{generated} frames of generated code: a dataclass-generated "
        "__init__ stores each field through object.__setattr__"
    )

