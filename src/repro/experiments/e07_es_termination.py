"""E7 — Lemmas 5–7 / Theorem 3: ES operations terminate once GST passes.

Paper claim: in an eventually synchronous system with (1) a majority of
the population active at all times and (2) joiners staying at least
``3δ``, every join, read and write invoked by a process that does not
leave eventually terminates.  The proof leans on post-GST joiners
unblocking pre-GST waiters via the DL_PREV/REPLY chain, so churn
*continuing* is part of the mechanism, not only the adversary.

The experiment invokes operations in time buckets before and after GST
and reports completion and latency per bucket: pre-GST operations may
linger (delays are arbitrary), post-GST operations settle within a few
``δ``.
"""

from __future__ import annotations

from typing import Any

from ..analysis.stats import summarize
from ..exec.spec import RunSpec
from ..net.delay import EventuallySynchronousDelay
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from ..workloads.generators import poisson_reads
from ..workloads.schedule import WorkloadDriver, WriteOp
from .harness import Experiment, Judgement

N = 21
DELTA = 4.0
CHURN_RATE = 0.004


def cell(
    seed: int,
    n: int,
    delta: float,
    gst: float,
    pre_gst_max: float,
    churn_rate: float,
    horizon: float,
) -> dict[str, Any]:
    """One ES run across GST; bucketed termination statistics."""
    config = SystemConfig(
        n=n,
        delta=delta,
        protocol="es",
        seed=seed,
        delay=EventuallySynchronousDelay(
            gst=gst, delta=delta, pre_gst_max=pre_gst_max
        ),
        trace=False,
    )
    system = DynamicSystem(config)
    system.attach_churn(rate=churn_rate, min_stay=3.0 * delta)
    driver = WorkloadDriver(system)
    plan = poisson_reads(
        start=5.0,
        end=horizon - 6.0 * delta,
        rate=0.25,
        rng=system.rng.stream("e07.plan"),
    )
    write_period = 8.0 * delta
    t = 10.0
    while t < horizon - 6.0 * delta:
        plan.append(WriteOp(time=t))
        t += write_period
    plan.sort(key=lambda op: op.time)
    driver.install(plan)
    system.run_until(horizon)
    system.close()

    rows = []
    for kind in ("join", "read", "write"):
        ops = system.history.operations(kind)
        for bucket, lo, hi in (
            ("pre-GST", 0.0, gst),
            ("post-GST", gst, horizon),
        ):
            bucket_ops = [op for op in ops if lo <= op.invoke_time < hi]
            done = [op for op in bucket_ops if op.done]
            excused = [op for op in bucket_ops if op.abandoned]
            latencies = [op.latency for op in done]
            rows.append(
                {
                    "op": kind,
                    "bucket": bucket,
                    "invoked": len(bucket_ops),
                    "completed": len(done),
                    "excused": len(excused),
                    "mean_latency": (
                        summarize(latencies).mean if latencies else 0.0
                    ),
                    "max_latency": (max(latencies) if latencies else 0.0),
                }
            )
    liveness = system.check_liveness(grace=6.0 * delta)
    safety = system.check_safety()
    return {
        "rows": rows,
        "liveness_summary": liveness.summary(),
        "safety_summary": safety.summary(),
        "live": liveness.is_live,
        "safe": safety.is_safe,
    }


def _params(seed: int, quick: bool) -> dict[str, Any]:
    gst = 80.0 if quick else 200.0
    return dict(
        n=N, delta=DELTA, gst=gst, pre_gst_max=15.0 * DELTA,
        churn_rate=CHURN_RATE, horizon=gst * 2.5, seed=seed,
    )


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    (outcome,) = outcomes
    notes = [
        outcome["liveness_summary"],
        outcome["safety_summary"],
        "pre-GST latencies reflect arbitrary delays (and unblocking via "
        "later joiners); post-GST operations settle within a few δ",
    ]
    verdict = (
        "REPRODUCED: all operations by staying processes terminated and the "
        "run is regular"
        if outcome["live"] and outcome["safe"]
        else "NOT REPRODUCED: stuck operations or safety violations observed"
    )
    return outcome["rows"], notes, verdict


#: One ES run across GST (a single engine cell); bucketed statistics.
EXPERIMENT = Experiment(
    id="E7",
    title="Theorem 3 — ES termination across GST",
    claim=(
        "under majority-active and 3δ-stay assumptions, every operation "
        "by a staying process terminates (messages are timely only "
        "after the unknown GST)"
    ),
    params=_params,
    grid=lambda p, quick: [
        RunSpec.seeded(
            f"{__name__}:cell", p["seed"], "e07",
            **{k: v for k, v in p.items() if k != "seed"},
        )
    ],
    judge=_judge,
)
