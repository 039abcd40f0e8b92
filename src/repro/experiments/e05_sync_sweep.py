"""E5 — Lemma 1 + Theorem 1: the synchronous protocol across churn rates.

Paper claims:

* **Termination (Lemma 1)** — joins terminate within ``3δ``, writes
  within ``δ``, reads immediately;
* **Safety (Theorem 1)** — every run is regular while ``c < 1/(3δ)``.

The sweep drives a read-heavy workload (the Section 3.3 target) under
increasing churn, through the cap and far beyond it, and reports the
safety-violation rate, join outcomes and operation latencies.  Below
the cap the protocol must be flawless; beyond it, the guarantee lapses
— violations appear once churn is strong enough that a joiner's whole
replier pool can vanish within its inquiry window (under uniform random
victims this needs several multiples of the cap; the worst-case
``oldest_first`` policy breaks it much closer to the cap, which is the
point of the bound being worst-case).
"""

from __future__ import annotations

from typing import Any

from ..churn.model import synchronous_churn_bound
from ..exec.runner import grouped
from ..exec.spec import RunSpec
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from .harness import Experiment, Judgement, drive_read_heavy, totals

N = 30
DELTA = 4.0
VICTIM_POLICY = "uniform"
CAP = synchronous_churn_bound(DELTA)
#: Multiples of the analytic cap swept.
CAP_FRACTIONS = (0.0, 0.3, 0.6, 0.9, 1.5, 3.0, 6.0)


def cell(
    seed: int,
    n: int,
    delta: float,
    c: float,
    horizon: float,
    victim_policy: str,
) -> dict[str, Any]:
    """One (churn rate, repetition): drive the workload, judge the run."""
    config = SystemConfig(n=n, delta=delta, protocol="sync", seed=seed, trace=False)
    system = DynamicSystem(config)
    if c > 0:
        system.attach_churn(rate=c, victim_policy=victim_policy)
    drive_read_heavy(
        system, horizon, horizon - 4.0 * delta, 6.0 * delta, 0.8, "e05.plan"
    )
    safety = system.check_safety(check_joins=False)
    liveness = system.check_liveness()
    joins_started = 0
    joins_completed = 0
    join_latencies: list[float] = []
    bottom_joins = 0
    for join in system.history.joins():
        joins_started += 1
        if join.done:
            joins_completed += 1
            join_latencies.append(join.latency)
            if join.result.sequence < 0:
                bottom_joins += 1
    return {
        "reads_checked": safety.checked_count,
        "read_violations": safety.violation_count,
        "stuck_ops": len(liveness.stuck),
        "joins_started": joins_started,
        "joins_completed": joins_completed,
        "join_latencies": join_latencies,
        "bottom_joins": bottom_joins,
    }


def _grid(p: dict[str, Any], quick: bool) -> list[RunSpec]:
    fixed = dict(n=N, delta=DELTA, horizon=p["horizon"], victim_policy=VICTIM_POLICY)
    return [
        RunSpec.seeded(
            f"{__name__}:cell", p["seed"], f"e05:{f}:{rep}", c=f * CAP, **fixed
        )
        for f in CAP_FRACTIONS
        for rep in range(p["repetitions"])
    ]


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    rows = []
    safe_below_cap = True
    for fraction, group in zip(CAP_FRACTIONS, grouped(outcomes, p["repetitions"])):
        total = totals(group)
        join_latencies = [lat for g in group for lat in g["join_latencies"]]
        reads_checked = total["reads_checked"]
        if fraction < 1.0 and (total["read_violations"] or total["stuck_ops"]):
            safe_below_cap = False
        rows.append(
            dict(
                c_over_cap=fraction,
                c=fraction * CAP,
                reads=reads_checked,
                violation_rate=(
                    total["read_violations"] / reads_checked if reads_checked else 0.0
                ),
                joins=total["joins_started"],
                join_done=total["joins_completed"],
                bottom_joins=total["bottom_joins"],
                join_lat_max=(max(join_latencies) if join_latencies else 0.0),
                stuck=total["stuck_ops"],
            )
        )
    notes = [
        "bottom_joins counts joins that ended holding ⊥ (no reply arrived) — "
        "the failure mode the 3δ-window bound exists to prevent",
        "join_lat_max must stay ≤ 3δ (Lemma 1); reads are local and always "
        "complete instantly",
    ]
    below = [row for row in rows if row["c_over_cap"] < 1.0]
    above = [row for row in rows if row["c_over_cap"] > 1.0]
    degradation_seen = any(
        row["violation_rate"] > 0 or row["bottom_joins"] > 0 or row["stuck"] > 0
        for row in above
    )
    verdict = (
        "REPRODUCED: flawless below the cap"
        + (", degradation appears beyond it" if degradation_seen else
           "; beyond the cap uniform churn stayed benign in these runs "
           "(the bound is worst-case — see E11)")
        if safe_below_cap and below
        else "NOT REPRODUCED: violations occurred below the churn cap"
    )
    return rows, notes, verdict


EXPERIMENT = Experiment(
    id="E5",
    title="Theorem 1 — synchronous protocol vs churn rate",
    claim=(
        f"every run is regular and operations terminate while "
        f"c < 1/(3δ) = {CAP:.4f}; beyond the cap the guarantee lapses"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, horizon=120.0 if quick else 400.0,
        repetitions=2 if quick else 5, victim_policy=VICTIM_POLICY, seed=seed,
    ),
    grid=_grid,
    judge=_judge,
)
