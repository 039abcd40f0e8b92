"""What a planned op costs the plan build, in Python calls per op.

``read_heavy_plan`` is the canonical Section 3.3 workload, and the
judged ``history_check_200k`` run builds ~77 k of its ops before the
drive starts.  A planned op is one Python call: the op's hand-written
``__init__``, which stores each field through its slot's member
descriptor.  The Poisson gap is drawn inline (``-log(1.0 -
rng.random()) / rate``, the body of ``Random.expovariate``), so no
frame is entered per draw.  ``sys.setprofile`` counts every
Python-level ``call`` event over the build — deterministic for a fixed
seed, so the bound holds without timing noise.  The plan has the
parameters of the one ``test_read_path_cost.py`` drives (about 10 k
reads, a write every 2δ).  It measures 1.002 calls per planned op, against 2.001 when each
gap was an ``rng.expovariate`` frame.

The count alone cannot tell the two constructors apart: the
dataclass's generated ``__init__`` is one frame too, and its
``object.__setattr__`` per field is a C call either way.  What it
costs is time (77 k ops, CPython 3.11, collector off: a median 86 ms
against the hand-written one's 48 ms), so the test also names the
frame: no frame of generated code (``co_filename``
``"<string>"``) may be entered while the plan is built.
"""

from __future__ import annotations

import random
import sys

from repro.workloads.generators import read_heavy_plan

DELTA = 5.0
HORIZON = 65.0
#: The ratchet: calls over the build per planned op.
MAX_CALLS_PER_OP = 1.05


def test_a_planned_op_costs_one_call_of_the_build():
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
        f"{calls} calls over {len(plan)} planned ops = {per_op:.3f} per op"
    )
    assert generated == 0, (
        f"{generated} frames of generated code: a dataclass-generated "
        "__init__ stores each field through object.__setattr__"
    )
