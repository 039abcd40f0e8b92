"""E4 — Lemma 2: the active-survivor lower bound ``|A(τ, τ+3δ)| ≥ n(1−3δc)``.

Paper claim: with constant churn ``c ≤ 1/(3δ)``, at least ``n(1−3δc)``
processes stay active through any window of length ``3δ`` starting at a
quiescent instant, and the count is strictly positive whenever
``c < 1/(3δ)`` — this is what guarantees a joiner's inquiry is always
answered.

The experiment sweeps ``c`` across the cap under the **worst-case**
victim policy Lemma 2's proof reasons about (leavers are the
longest-present members) and reports:

* the survivor count of the first window ``[0, 3δ]`` (the lemma's
  quiescent-start statement);
* the minimum over all steady-state windows (stricter than the lemma —
  in steady state some members are still joining, so the count can dip
  below the quiescent-start bound; the table shows by how much);
* the analytic bound ``n(1−3δc)``.
"""

from __future__ import annotations

from typing import Any

from ..churn.model import lemma2_window_lower_bound, synchronous_churn_bound
from ..exec.spec import RunSpec
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from .harness import Experiment, Judgement

N = 60
DELTA = 5.0
#: Worst-case victims: the longest-present members leave first.
VICTIM_POLICY = "oldest_first"
CAP = synchronous_churn_bound(DELTA)
#: Fractions of the analytic cap 1/(3δ) swept.
CAP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)


def cell(
    seed: int,
    n: int,
    delta: float,
    c: float,
    horizon: float,
    victim_policy: str,
) -> dict[str, Any]:
    """One churn rate: run the system and measure window survivors."""
    window = 3.0 * delta
    config = SystemConfig(n=n, delta=delta, protocol="sync", seed=seed, trace=False)
    system = DynamicSystem(config)
    if c > 0:
        system.attach_churn(rate=c, protect_writer=False, victim_policy=victim_policy)
    system.run_until(horizon)
    return {
        "first_window": system.membership.active_throughout_count(0.0, window),
        "min_window": system.tracker.min_window_survivors(
            width=window, start=0.0, end=horizon - window, step=1.0
        ),
    }


def _grid(p: dict[str, Any], quick: bool) -> list[RunSpec]:
    fixed = dict(n=N, delta=DELTA, horizon=p["horizon"], victim_policy=VICTIM_POLICY)
    return [
        RunSpec.seeded(f"{__name__}:cell", p["seed"], f"e04:{f}", c=f * CAP, **fixed)
        for f in CAP_FRACTIONS
    ]


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    rows = []
    for fraction, measured in zip(CAP_FRACTIONS, outcomes):
        c = fraction * CAP
        bound = lemma2_window_lower_bound(N, c, DELTA)
        rows.append(
            dict(
                c=c,
                c_over_cap=fraction,
                bound=bound,
                first_window=measured["first_window"],
                min_window=measured["min_window"],
                bound_holds=measured["first_window"] >= bound - 1e-9,
            )
        )
    notes = [
        "first_window is |A(0, 3δ)| from the quiescent start (the lemma's "
        "setting); min_window is the steady-state minimum over all windows"
    ]
    verdict = (
        "REPRODUCED: the quiescent-start bound holds at every swept churn rate"
        if all(row["bound_holds"] for row in rows)
        else "NOT REPRODUCED: the quiescent-start bound failed somewhere"
    )
    return rows, notes, verdict


EXPERIMENT = Experiment(
    id="E4",
    title="Lemma 2 — survivors of a 3δ window under constant churn",
    claim=f"|A(τ, τ+3δ)| ≥ n(1 − 3δc) > 0 for c < 1/(3δ) = {CAP:.4f}",
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, horizon=60.0 if quick else 240.0,
        victim_policy=VICTIM_POLICY, seed=seed,
    ),
    grid=_grid,
    judge=_judge,
)
