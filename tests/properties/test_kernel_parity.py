"""The kernel's observable surface, pinned by a golden and a live oracle.

The kernel has one scheduler, one delivery path and one dispatch plane.
Two things hold it to the behaviour of the paper-literal machine it
replaced:

* **Golden.**  The golden store (``tests/golden.py``) holds, per grid
  cell, the surface the all-legacy kernel produced at the last commit
  that still had it (one ``Message`` + ``Event`` per recipient,
  per-recipient ``on_<type>`` dispatch, binary heap) — operation
  digest, every network counter, the fired-event count, under
  ``kernel/<cell>`` — and, for the traced cells, a hash of the full
  trace-record sequence under ``trace/<cell>``.  Every cell must
  reproduce its entry exactly.  The ``spike`` / ``crash`` / ``combo`` cells were added later, dumped
  from the last kernel that took *every* faulted delivery through the
  checked path and the ``on_<type>`` handlers (the 39 older cells came
  out byte-identical in that dump), before transmit-only plans moved
  off the checked path.
* **Live.**  Every payload type has one body, its ``on_<type>`` handler;
  what ``trace`` still forks is how a delivery reaches it.  ``trace=True``
  takes each one through ``_fire_checked`` → ``deliver_payload`` and
  draws every send's delay with ``DelayModel.sample``; ``trace=False``
  dispatches inline at the two fire sites and lets ``send_payload``
  draw ``lo + span * random()`` inline from the declared parameters.
  So ``trace=True`` ≡ ``trace=False`` on the whole grid (and in the
  Hypothesis sweep, which no golden covers) compares the checked
  wrapper against the inlined dispatch and ``sample`` against the
  inline draw; the fan-out sweep runs on both sides, and it is the
  golden that holds it to per-recipient entries — and, since the sends
  sync used to fuse by hand are gone, that holds plain ``send_payload``
  to what the fused sends scheduled.

Any divergence here means a kernel change altered semantics, not just
speed — a hard failure.  After a deliberate behaviour change, rewrite
the store with ``PYTHONPATH=src python -m tests.golden`` and say which
keys moved.
"""

from __future__ import annotations

import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import operation_digest
from repro.faults.plan import (
    CrashFault,
    DelaySpikeFault,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from repro.net.delay import EventuallySynchronousDelay
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from tests.golden import expected

#: The fault plans of the grid (``None`` = fault-free).  Loss exercises
#: the on-transmit gate; the partition exercises delivery-time severing
#: (both the drop and the deferred-heal arm); ``spike`` and ``combo``
#: (the judged ``es_faulted_200`` shape: light loss on the reply types,
#: a defer partition, a delay spike) are transmit-only plans, which
#: dispatch inline with tracing off; ``crash`` gates deliveries, like
#: the drop partition, and stays on the checked path either way.
FAULT_PLANS = {
    "none": None,
    "loss": FaultPlan.of(
        LossFault(probability=0.3, start=10.0, end=60.0), name="loss"
    ),
    "partition": FaultPlan.of(
        PartitionFault(
            start=20.0, end=24.0, group_a=frozenset({"p0001", "p0002"})
        ),
        name="partition",
    ),
    "defer": FaultPlan.of(
        PartitionFault(
            start=15.0,
            end=19.0,
            group_a=frozenset({"p0003"}),
            mode="defer",
        ),
        name="defer",
    ),
    "spike": FaultPlan.of(
        DelaySpikeFault(start=12.0, end=30.0, factor=3.0, extra=1.0),
        name="spike",
    ),
    "crash": FaultPlan.of(
        CrashFault(phase="WriteMsg", occurrence=5),
        CrashFault(phase="EsWrite", occurrence=5),
        CrashFault(phase="AbdAck", victim="sender", occurrence=3),
        CrashFault(phase="Inquiry", victim="sender", occurrence=7),
        name="crash",
    ),
    "combo": FaultPlan.of(
        LossFault(
            probability=0.05,
            payload_types={"Reply", "EsReply", "EsAck", "AbdAck", "AbdQueryReply"},
        ),
        PartitionFault(
            start=14.0,
            end=18.0,
            group_a=frozenset({"p0001", "p0002", "p0003", "p0004"}),
            mode="defer",
        ),
        DelaySpikeFault(start=15.0, end=30.0, factor=4.0),
        name="combo",
    ),
}

#: GST of the eventually-synchronous cells: 6δ, inside the 48-unit run,
#: so the pre-GST flush clamps every straggler to exactly ``gst + δ`` —
#: the tied-instant regime the per-recipient delivery order must keep.
ES_GST = 30.0

SEEDS = (0, 1, 7, 42, 1234)

#: protocol × churn × fault plan at one seed, then seed sweeps through
#: the two regimes that stress ordering most (churn with loss; churn on
#: the quorum protocol).
CELLS = (
    [
        dict(protocol=protocol, churn_rate=churn_rate, fault_key=fault_key, seed=11)
        for protocol in ("sync", "es", "abd")
        for churn_rate in (0.0, 0.08)
        for fault_key in sorted(FAULT_PLANS)
    ]
    + [
        dict(protocol="sync", churn_rate=0.1, fault_key="loss", seed=seed)
        for seed in SEEDS
    ]
    + [
        dict(protocol=protocol, churn_rate=0.1, fault_key="none", seed=seed)
        for protocol in ("sync", "es")
        for seed in SEEDS
    ]
    + [
        dict(protocol="es", churn_rate=churn_rate, fault_key=fault_key, seed=11, gst=ES_GST)
        for churn_rate in (0.0, 0.08)
        for fault_key in ("combo", "crash")
    ]
)

#: Cells whose whole trace-record sequence is pinned as well.
TRACED_CELLS = [
    dict(protocol="sync", churn_rate=0.08, fault_key="none", seed=11),
    dict(protocol="sync", churn_rate=0.08, fault_key="loss", seed=11),
    dict(protocol="es", churn_rate=0.08, fault_key="none", seed=11),
    dict(protocol="sync", churn_rate=0.08, fault_key="combo", seed=11),
    dict(protocol="es", churn_rate=0.08, fault_key="combo", seed=11, gst=ES_GST),
]


def _cell_id(cell: dict) -> str:
    cell_id = "{protocol}-churn{churn_rate}-{fault_key}-seed{seed}".format(**cell)
    return f"{cell_id}-gst{cell['gst']}" if "gst" in cell else cell_id


def _drive(
    *,
    protocol: str = "sync",
    seed: int = 11,
    churn_rate: float = 0.0,
    fault_key: str = "none",
    trace: bool = False,
    n: int = 12,
    gst: float | None = None,
) -> DynamicSystem:
    """One fixed workload; returns the system still open (callers pick
    their observation surface)."""
    system = DynamicSystem(
        SystemConfig(
            n=n,
            delta=5.0,
            protocol=protocol,
            seed=seed,
            trace=trace,
            faults=FAULT_PLANS[fault_key],
            delay=(
                None
                if gst is None
                else EventuallySynchronousDelay(gst=gst, delta=5.0)
            ),
        )
    )
    if churn_rate:
        system.attach_churn(rate=churn_rate, min_stay=12.0)
    for _ in range(4):
        system.write()
        system.run_for(8.0)
        for pid in system.active_pids()[:3]:
            system.read(pid)
        system.run_for(4.0)
    return system


def _surface(system: DynamicSystem) -> dict:
    """Everything an outside observer can see, in one comparable dict."""
    network = system.network
    return {
        "digest": operation_digest(system.close()),
        "sent": network.sent_count,
        "delivered": network.delivered_count,
        "dropped": network.dropped_count,
        "faulted": network.faulted_count,
        "fired": system.engine.fired_count,
        "now": system.engine.now,
        "present": len(system.membership),
    }


def _trace_surface(system: DynamicSystem) -> dict:
    """The trace-record sequence, counted and hashed.

    Broadcast ids come from a process-global counter, so they are
    relabelled by first appearance: the *order* of allocation is part of
    the contract, the offset is not.
    """
    relabel: dict[int, int] = {}
    lines = []
    for record in system.trace:
        details = dict(record.details)
        raw = details.get("broadcast_id")
        if raw is not None:
            details["broadcast_id"] = relabel.setdefault(raw, len(relabel))
        lines.append(
            repr((record.time, record.kind.value, record.process, sorted(details.items())))
        )
    return {
        "records": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def _cell_surface(cell: dict) -> dict:
    return _surface(_drive(**cell))


def _cell_trace(cell: dict) -> dict:
    return _trace_surface(_drive(trace=True, **cell))


#: The grid and the traced cells by their golden-store key.
SURFACE_CELLS = {f"kernel/{_cell_id(cell)}": cell for cell in CELLS}
TRACE_CELLS = {f"trace/{_cell_id(cell)}": cell for cell in TRACED_CELLS}


def kernel_family() -> dict:
    """The golden store's ``kernel/`` family: every grid cell's surface."""
    return {
        key: functools.partial(_cell_surface, cell)
        for key, cell in SURFACE_CELLS.items()
    }


def trace_family() -> dict:
    """The golden store's ``trace/`` family: every traced cell's records."""
    return {
        key: functools.partial(_cell_trace, cell) for key, cell in TRACE_CELLS.items()
    }


class TestKernelGolden:
    """Every cell reproduces what the legacy kernel produced."""

    @pytest.mark.parametrize("key", SURFACE_CELLS)
    def test_surface_matches_golden(self, key):
        assert _cell_surface(SURFACE_CELLS[key]) == expected(key)

    @pytest.mark.parametrize("key", TRACE_CELLS)
    def test_trace_records_match_golden(self, key):
        assert _cell_trace(TRACE_CELLS[key]) == expected(key)


class TestWavesAgainstHandlers:
    """The live oracle: tracing on (the checked wrapper, sampled delays)
    and tracing off (inlined dispatch, inline draws) are one machine."""

    @pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
    def test_trace_on_equals_trace_off(self, cell):
        assert _surface(_drive(trace=True, **cell)) == _surface(
            _drive(trace=False, **cell)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        churn_rate=st.floats(min_value=0.0, max_value=0.12),
        protocol=st.sampled_from(["sync", "es", "abd"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_seed_any_churn(self, seed, churn_rate, protocol):
        """Hypothesis sweeps the seed/churn space the grid cannot cover."""
        surfaces = [
            _surface(
                _drive(
                    protocol=protocol,
                    seed=seed,
                    churn_rate=churn_rate,
                    n=10,
                    trace=trace,
                )
            )
            for trace in (True, False)
        ]
        assert surfaces[0] == surfaces[1]
