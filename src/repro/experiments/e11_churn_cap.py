"""E11 — the Section 7 open question: how tight is the ``1/(3δ)`` cap?

The paper proves the synchronous protocol correct for ``c < 1/(3δ)``
and asks whether that is the greatest survivable churn.  The bound is
*worst-case* (Lemma 2 charges every departure against the window's
initial active set), and under the worst-case departure schedule it is
**exactly tight**, for a crisp reason:

* under ``oldest_first`` eviction every process is evicted after
  precisely ``1/c`` time units of presence;
* a join needs ``3δ`` (wait ``δ`` + inquiry round trip ``2δ``);
* so for ``c > 1/(3δ)`` **no joiner can ever complete** — the active
  population is never replenished and the system starves down to the
  protected writer, while for ``c < 1/(3δ)`` every joiner finishes and
  the active population is sustained.

Under benign ``uniform`` eviction, lifetimes are geometric with mean
``1/c``: some joiners survive ``3δ`` even above the cap, so the system
degrades gradually instead of dying at the threshold.  The experiment
sweeps ``c`` across the cap under both policies and reports the join
completion rate and the active population at the horizon.

A bonus confirmation falls out of the same sweep: under ``oldest_first``
the steady-state active population settles at **exactly** Lemma 2's
``n(1 − 3δc)`` — each process lives ``1/c``, spends ``3δ`` joining, and
is active for the remaining fraction ``1 − 3δc`` of its life.  The
table's ``predicted_active`` column shows the match.
"""

from __future__ import annotations

from typing import Any

from ..churn.model import synchronous_churn_bound
from ..exec.spec import RunSpec
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from .harness import Experiment, Judgement

N = 30
DELTAS = (2.0, 4.0)
CAP_MULTIPLES = (0.5, 0.8, 0.95, 1.05, 1.3, 2.0)


def cell(
    seed: int,
    n: int,
    delta: float,
    c: float,
    horizon: float,
    policy: str,
) -> dict[str, Any]:
    """One (δ, policy, churn rate): join completion and population."""
    config = SystemConfig(n=n, delta=delta, protocol="sync", seed=seed, trace=False)
    system = DynamicSystem(config)
    system.attach_churn(rate=c, victim_policy=policy)
    system.run_until(horizon)
    system.close()
    joins = system.history.joins()
    done = sum(1 for j in joins if j.done)
    return {
        "joins": len(joins),
        "join_done_rate": done / len(joins) if joins else 1.0,
        "active_end": system.membership.active_count_at(horizon),
    }


def _grid_points() -> list[tuple[float, str, float, float]]:
    """The (δ, policy, multiple of the cap, c) cells; c < 1 only."""
    points = []
    for delta in DELTAS:
        cap = synchronous_churn_bound(delta)
        for policy in ("oldest_first", "uniform"):
            for multiple in CAP_MULTIPLES:
                if multiple * cap < 1.0:
                    points.append((delta, policy, multiple, multiple * cap))
    return points


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    rows = []
    tight_under_adversary = True
    conservative_under_uniform = True
    steady_state_matches = True
    for (delta, policy, multiple, c), measured in zip(_grid_points(), outcomes):
        join_rate = measured["join_done_rate"]
        active_end = measured["active_end"]
        predicted = max(0.0, N * (1.0 - 3.0 * delta * c))
        if policy == "oldest_first":
            # Tightness: joins complete below the cap, none above.
            if multiple < 1.0 and join_rate < 0.8:
                tight_under_adversary = False
            if multiple >= 1.3 and join_rate > 0.05:
                tight_under_adversary = False
            # Steady state matches Lemma 2's formula (writer is
            # protected, hence the +1 slack; churn granularity
            # adds a couple more).
            if abs(active_end - predicted) > max(3.0, 0.15 * N):
                steady_state_matches = False
        if policy == "uniform" and 1.0 < multiple <= 1.5:
            # Conservative for benign churn: still some completions.
            if join_rate < 0.05:
                conservative_under_uniform = False
        rows.append(
            dict(
                delta=delta,
                policy=policy,
                c_over_cap=multiple,
                c=c,
                joins=measured["joins"],
                join_done_rate=join_rate,
                active_end=active_end,
                predicted_active=predicted,
            )
        )
    notes = [
        "oldest_first evicts each process after exactly 1/c time units; a "
        "join needs 3δ, so join_done_rate must collapse exactly at "
        "c/cap = 1 under that policy",
        "predicted_active = n(1 − 3δc), Lemma 2's bound — under worst-case "
        "churn it is also the steady-state active population",
        "under uniform eviction, lifetimes are geometric, some joiners "
        "outlive 3δ above the cap, and the system degrades gradually — "
        "the analytic cap is conservative for benign churn",
    ]
    verdict = (
        "REPRODUCED: the cap is exactly tight under worst-case departures, "
        "conservative under uniform ones, and the steady-state active "
        "population matches n(1 − 3δc)"
        if (tight_under_adversary and conservative_under_uniform
            and steady_state_matches)
        else "PARTIAL: see join_done_rate and predicted_active columns"
    )
    return rows, notes, verdict


#: Locate the empirical churn breaking point per δ and policy.
EXPERIMENT = Experiment(
    id="E11",
    title="Empirical churn cap vs the analytic 1/(3δ)",
    claim=(
        "the synchronous protocol is proved correct for c < 1/(3δ); "
        "under worst-case departures the cap is exactly tight (joins "
        "need 3δ of stability), under benign departures it is conservative"
    ),
    params=lambda seed, quick: {"n": N, "seed": seed},
    grid=lambda p, quick: [
        RunSpec.seeded(
            f"{__name__}:cell", p["seed"], f"e11:{delta}:{policy}:{multiple}",
            n=N, delta=delta, c=c, horizon=120.0 if quick else 300.0, policy=policy,
        )
        for delta, policy, multiple, c in _grid_points()
    ],
    judge=_judge,
)
