"""E12 (extension) — is the *constant*-churn assumption load-bearing?

The paper fixes ``c`` to a constant and proves the synchronous protocol
correct for ``c < 1/(3δ)``.  Real churn bursts.  E12 compares three
regimes with the **same long-run average rate**, all under worst-case
(oldest-first) departures:

* ``constant`` — the paper's model at the average rate;
* ``burst`` — quiet base rate with periodic bursts far above the cap
  (flash-crowd exits), averaging to the same rate;
* ``diurnal`` — a sinusoidal cycle around the average whose peaks stay
  *below* the cap.

Measured effects: join completion, ⊥-joins and read safety.  The
finding: averages do not transfer.  A constant or smoothly-varying rate
below the cap is harmless, while bursts above the cap damage exactly
the joins in flight during a burst — their replier pool is wiped within
the inquiry window — even though the long-run average is identical.
The instantaneous rate is the quantity Lemma 2 is really about.
"""

from __future__ import annotations

from typing import Any

from ..churn.model import synchronous_churn_bound
from ..churn.profiles import BurstRate, ConstantRate, DiurnalRate, RateProfile
from ..exec.runner import grouped
from ..exec.spec import RunSpec
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from .harness import Experiment, Judgement, drive_read_heavy, totals

N = 30
DELTA = 4.0
CAP = synchronous_churn_bound(DELTA)
# Burst design: quiet at 0.2·cap, bursts at 3·cap for 2δ out of every 80
# time units — a long-run average of ~0.48·cap, safely below the cap,
# with instantaneous excursions far above it.
BURST = 3.0 * CAP
_BURST_PROFILE = BurstRate(
    base_rate=0.2 * CAP,
    burst_rate=BURST,
    period=80.0,
    burst_length=2.0 * DELTA,
    first_burst=20.0,
)
AVERAGE = _BURST_PROFILE.long_run_average()
#: The three regimes, in table order; the diurnal peak (average × 1.8)
#: stays strictly below the cap.
PROFILES: dict[str, RateProfile] = {
    "constant": ConstantRate(AVERAGE),
    "diurnal": DiurnalRate(base_rate=AVERAGE, amplitude=AVERAGE * 0.8, period=80.0),
    "burst": _BURST_PROFILE,
}


def cell(
    seed: int,
    n: int,
    delta: float,
    profile: RateProfile,
    horizon: float,
) -> dict[str, Any]:
    """One (regime, repetition) under worst-case departures.

    ``profile`` is a :class:`RateProfile` value object — plain
    attributes, so it pickles across the worker pool like any other
    spec parameter.
    """
    config = SystemConfig(n=n, delta=delta, protocol="sync", seed=seed, trace=False)
    system = DynamicSystem(config)
    system.attach_churn(profile=profile, victim_policy="oldest_first")
    drive_read_heavy(
        system, horizon, horizon - 3.0 * delta, 8.0 * delta, 0.6, "e12.plan"
    )
    safety = system.check_safety(check_joins=False)
    joins_total = 0
    joins_done = 0
    bottom_joins = 0
    for join in system.history.joins():
        joins_total += 1
        if join.done:
            joins_done += 1
            if join.result.sequence < 0:
                bottom_joins += 1
    return {
        "joins_total": joins_total,
        "joins_done": joins_done,
        "bottom_joins": bottom_joins,
        "reads_checked": safety.checked_count,
        "violations": safety.violation_count,
    }


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    rows = []
    groups = grouped(outcomes, p["repetitions"])
    for (name, profile), group in zip(PROFILES.items(), groups):
        total = totals(group)
        joins_total = total["joins_total"]
        peak = max(profile.rate_at(t) for t in range(0, int(p["horizon"])))
        rows.append(
            dict(
                regime=name,
                peak_over_cap=peak / CAP,
                joins=joins_total,
                join_done_rate=(
                    total["joins_done"] / joins_total if joins_total else 1.0
                ),
                bottom_joins=total["bottom_joins"],
                reads=total["reads_checked"],
                violations=total["violations"],
            )
        )
    by_name = {row["regime"]: row for row in rows}
    constant_clean = (
        by_name["constant"]["violations"] == 0
        and by_name["constant"]["bottom_joins"] == 0
        and by_name["constant"]["join_done_rate"] > 0.85
    )
    diurnal_clean = (
        by_name["diurnal"]["violations"] == 0
        and by_name["diurnal"]["bottom_joins"] == 0
        and by_name["diurnal"]["join_done_rate"] > 0.85
        and by_name["diurnal"]["peak_over_cap"] < 1.0
    )
    burst_damaged = (
        by_name["burst"]["join_done_rate"]
        < by_name["constant"]["join_done_rate"] - 0.05
        or by_name["burst"]["bottom_joins"] > 0
        or by_name["burst"]["violations"] > 0
    )
    notes = [
        "all three regimes share the same long-run average; only the "
        "burst regime exceeds 1/(3δ) instantaneously (peak_over_cap)",
        "bursts under oldest-first departures wipe the replier pool of "
        "joins in flight during the burst — the constant-rate assumption "
        "is about the instantaneous rate, not the average",
    ]
    verdict = (
        "REPRODUCED: sub-cap constant and diurnal regimes are clean; the "
        "equal-average burst regime damages joins"
        if constant_clean and diurnal_clean and burst_damaged
        else "PARTIAL: see per-regime columns"
    )
    return rows, notes, verdict


#: Same average churn, three shapes; damage differs.
EXPERIMENT = Experiment(
    id="E12",
    title="Extension — burst churn vs the constant-rate assumption",
    claim=(
        f"the protocol is proved for constant c < 1/(3δ) = {CAP:.4f}; "
        f"all three regimes below average to {AVERAGE:.4f} "
        f"({AVERAGE / CAP:.0%} of the cap), only the burst regime "
        f"exceeds the cap instantaneously"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, horizon=240.0 if quick else 600.0,
        repetitions=1 if quick else 3, burst_rate_over_cap=BURST / CAP, seed=seed,
    ),
    grid=lambda p, quick: [
        RunSpec.seeded(
            f"{__name__}:cell", p["seed"], f"e12:{name}:{rep}",
            n=N, delta=DELTA, profile=profile, horizon=p["horizon"],
        )
        for name, profile in PROFILES.items()
        for rep in range(p["repetitions"])
    ],
    judge=_judge,
)
