"""E8 — Theorem 4: ES safety holds under the majority-active assumption,
and lapses when churn is pushed past what the assumption tolerates.

Paper claim: with ``∀τ: |A(τ)| ≥ n/2 + 1`` (and the Section 5.2 churn
bound), every read returns the last value written before it or a
concurrently written one.

The sweep raises the churn rate from well inside the assumption to far
beyond it.  Two effects are measured:

* ``min_active`` — the smallest observed ``|A(τ)|`` against the ``n/2``
  threshold: once churn outruns join completion, the active majority
  erodes;
* consequences — quorum operations stall (liveness loss: the honest
  failure mode of a majority protocol) and, at extreme churn, joins can
  even adopt ⊥ and serve it (safety loss).
"""

from __future__ import annotations

from typing import Any

from ..churn.model import eventually_synchronous_churn_bound
from ..exec.runner import grouped
from ..exec.spec import RunSpec
from ..net.delay import EventuallySynchronousDelay
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from .harness import Experiment, Judgement, drive_read_heavy, totals

N = 21
DELTA = 4.0
BOUND = eventually_synchronous_churn_bound(DELTA, N)
#: Churn rates swept, as multiples of the paper's ES bound 1/(3δn).
BOUND_MULTIPLES = (0.0, 1.0, 4.0, 16.0, 64.0, 128.0)


def cell(
    seed: int,
    n: int,
    delta: float,
    c: float,
    gst: float,
    horizon: float,
) -> dict[str, Any]:
    """One (churn rate, repetition) under the ES protocol."""
    config = SystemConfig(
        n=n,
        delta=delta,
        protocol="es",
        seed=seed,
        delay=EventuallySynchronousDelay(
            gst=gst, delta=delta, pre_gst_max=8.0 * delta
        ),
        trace=False,
    )
    system = DynamicSystem(config)
    if c > 0:
        system.attach_churn(rate=c, min_stay=3.0 * delta)
    drive_read_heavy(
        system, horizon, horizon - 8.0 * delta, 10.0 * delta, 0.3, "e08.plan"
    )
    safety = system.check_safety(check_joins=False)
    liveness = system.check_liveness(grace=10.0 * delta)
    return {
        "reads_checked": safety.checked_count,
        "violations": safety.violation_count,
        "stuck": len(liveness.stuck),
        "min_active": system.tracker.min_active(),
    }


def _grid(p: dict[str, Any], quick: bool) -> list[RunSpec]:
    fixed = dict(n=N, delta=DELTA, gst=p["gst"], horizon=p["horizon"])
    return [
        RunSpec.seeded(
            f"{__name__}:cell", p["seed"], f"e08:{m}:{rep}", c=m * BOUND, **fixed
        )
        for m in BOUND_MULTIPLES
        for rep in range(p["repetitions"])
    ]


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    rows = []
    safe_within = True
    for multiple, group in zip(BOUND_MULTIPLES, grouped(outcomes, p["repetitions"])):
        total = totals(group)
        if multiple <= 1.0 and (total["violations"] or total["stuck"]):
            safe_within = False
        rows.append(
            dict(
                c_over_bound=multiple,
                c=multiple * BOUND,
                min_active=min((g["min_active"] for g in group), default=N),
                majority_ok=all(g["min_active"] > N // 2 for g in group),
                reads=total["reads_checked"],
                violations=total["violations"],
                stuck=total["stuck"],
            )
        )
    notes = [
        f"majority threshold is |A(τ)| ≥ {N // 2 + 1} (n={N}); majority_ok "
        f"records whether every probe stayed strictly above n/2",
        "the honest failure mode of a majority protocol is stalling (stuck "
        "> 0) once the active majority erodes; violations require serving ⊥",
    ]
    verdict = (
        "REPRODUCED: safe and live within the assumption; degradation "
        "appears as the majority-active margin erodes"
        if safe_within
        else "NOT REPRODUCED: failures occurred within the assumption"
    )
    return rows, notes, verdict


EXPERIMENT = Experiment(
    id="E8",
    title="Theorem 4 — ES safety vs churn / majority-active margin",
    claim=(
        f"reads are regular while |A(τ)| > n/2 at all times and "
        f"c ≤ 1/(3δn) = {BOUND:.5f}"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, gst=30.0, horizon=150.0 if quick else 450.0,
        repetitions=1 if quick else 3, seed=seed,
    ),
    grid=_grid,
    judge=_judge,
)
