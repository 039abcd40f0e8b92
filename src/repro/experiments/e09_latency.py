"""E9 — the Section 3.3 design point: *fast reads*.

Paper claim: the synchronous protocol's read is purely local (zero
latency, no messages); its write costs one broadcast plus a ``δ`` wait;
a join costs at most ``3δ``.  The eventually-synchronous protocol pays
a quorum round trip on *every* operation — the price of losing the
delay bound.

Same workload, same churn, both protocols; the table reports the
latency distribution per operation kind.
"""

from __future__ import annotations

from typing import Any

from ..analysis.stats import percentile, summarize
from ..exec.spec import RunSpec
from ..net.delay import EventuallySynchronousDelay
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from .harness import Experiment, Judgement, drive_read_heavy

N = 20
DELTA = 4.0
CHURN_RATE = 0.005


def cell(
    seed: int,
    n: int,
    delta: float,
    protocol: str,
    churn_rate: float,
    horizon: float,
) -> list[dict[str, Any]]:
    """One protocol under the shared workload; latency rows."""
    if protocol == "sync":
        delay = None  # defaults to SynchronousDelay(delta)
    else:
        # Post-GST from the start: isolates the quorum cost from
        # the pre-GST chaos (E7 covers that separately).
        delay = EventuallySynchronousDelay(gst=0.0, delta=delta)
    config = SystemConfig(
        n=n,
        delta=delta,
        protocol=protocol,
        seed=seed,
        delay=delay,
        trace=False,
    )
    system = DynamicSystem(config)
    system.attach_churn(rate=churn_rate, min_stay=3.0 * delta)
    drive_read_heavy(
        system, horizon, horizon - 5.0 * delta, 6.0 * delta, 0.5, "e09.plan"
    )
    rows = []
    for kind in ("read", "write", "join"):
        latencies = [
            op.latency for op in system.history.operations(kind) if op.done
        ]
        if not latencies:
            continue
        stats = summarize(latencies)
        rows.append(
            {
                "protocol": protocol,
                "op": kind,
                "count": stats.count,
                "mean": stats.mean,
                "p95": percentile(latencies, 95.0),
                "max": stats.maximum,
                "in_delta_units": stats.mean / delta,
            }
        )
    return rows


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    rows = [row for protocol_rows in outcomes for row in protocol_rows]
    read = {r["protocol"]: r for r in rows if r["op"] == "read"}
    notes = [
        "in_delta_units = mean latency / δ; sync reads are local so the "
        "column is exactly 0 for them"
    ]
    reproduced = (
        "sync" in read
        and read["sync"]["max"] == 0.0
        and "es" in read
        and read["es"]["mean"] > 0.0
    )
    verdict = (
        "REPRODUCED: sync reads are free, ES reads pay a quorum round trip"
        if reproduced
        else "NOT REPRODUCED: latency shape differs from the paper's design point"
    )
    return rows, notes, verdict


#: Same workload, same churn, one cell per protocol.
EXPERIMENT = Experiment(
    id="E9",
    title="Fast reads — operation latency by protocol",
    claim=(
        "sync: read = 0, write = δ, join ≤ 3δ; "
        "es: every operation pays at least one quorum round trip"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, churn_rate=CHURN_RATE,
        horizon=150.0 if quick else 500.0, seed=seed,
    ),
    grid=lambda p, quick: [
        RunSpec.seeded(
            f"{__name__}:cell", p["seed"], f"e09:{protocol}", protocol=protocol,
            **{k: v for k, v in p.items() if k != "seed"},
        )
        for protocol in ("sync", "es")
    ],
    judge=_judge,
)
