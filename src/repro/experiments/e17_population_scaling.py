"""E17 — population scaling: the churn threshold probed at n up to 10⁵.

The paper's churn bounds are asymptotic claims, but every experiment so
far ran at n ≈ 100 — two orders of magnitude below the populations
where the finite-size correction ``(1 − 1/n)`` in Lemma 2's survivable
churn threshold

    c_max(n) = (1 − 1/n) / (3δ)

stops mattering.  The batched-delivery kernel (one queue entry per
distinct arrival instant instead of one ``Event`` + envelope per
recipient) made populations of 10³–10⁴ affordable, and the inlined
handler dispatch over tuple-only reply deliveries lifts the ceiling
to 10⁵, so this experiment sweeps n ∈ {100, 1 000, 10 000, 100 000}
(quick mode stops at 10⁴) and probes fractions of each population's
own threshold:

* **sub-threshold cells** (0.3× and, where affordable, 0.9× of
  ``c_max(n)``) run worst-case ``oldest_first`` eviction — every
  process lives exactly ``1/c > 3δ`` — so every join whose ``3δ``
  window fits inside the horizon must complete, and regularity must
  hold;
* **above-threshold cells** (1.3× at n = 100, 1.15× at n = 1 000)
  show the sharp edge: under worst-case eviction no joiner survives
  its own ``3δ`` join window, so join completion collapses to zero;
* the **n ≥ 10 000 cells** run a small absolute churn flow (rate
  1/n, i.e. one membership refresh per tick — each refresh still fans
  an inquiry round out to all n processes) and must stay regular,
  have joins eligible and complete every one of them: the population
  sizes the per-event kernel could not reach.

The threshold at n = 10⁵ and at n = 10⁶ differs by under 10⁻⁵
relative, so the n = 10⁵ cell is the last one the asymptotic claim
needs; an exact n = 10⁶ one-refresh-per-tick cell is a documented
manual check (README), not part of the grid.

Nothing here reads a clock: the result rows are byte-identical across
runs and worker counts, and wall time is measured with ``perf/``.
"""

from __future__ import annotations

from typing import Any

from ..exec.spec import RunSpec
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from .harness import Experiment, Judgement, populations_label

DELTA = 5.0
#: Populations swept.  Quick mode stops at 10⁴ (the 10⁵ cell costs
#: ~10 s of wall alone); full mode, its own CI step, runs all four.
POPULATIONS = (100, 1_000, 10_000, 100_000)


def population_churn_threshold(n: int, delta: float) -> float:
    """Lemma 2's survivable churn threshold ``(1 − 1/n)/(3δ)``.

    ``n(1 − 3δc) ≥ 1`` — at least one active process must survive any
    join window to answer the inquiry — solves to exactly this; it
    approaches the asymptotic ``1/(3δ)`` cap as ``n`` grows.
    """
    return (1.0 - 1.0 / n) / (3.0 * delta)


def cell(
    seed: int,
    n: int,
    delta: float,
    rate: float,
    horizon: float,
    writes: int,
) -> dict[str, Any]:
    """One (population, churn rate) cell: drive, close, judge, count.

    Eviction is worst-case ``oldest_first`` (each process lives exactly
    ``1/rate``), the regime in which the threshold is exactly tight.
    """
    system = DynamicSystem(
        SystemConfig(n=n, delta=delta, protocol="sync", seed=seed, trace=False)
    )
    if rate > 0.0:
        system.attach_churn(rate=rate, victim_policy="oldest_first")
    period = horizon / (writes + 1)
    for _ in range(writes):
        system.write()
        system.run_for(period)
        for pid in system.active_pids()[:2]:
            system.read(pid)
    system.run_until(horizon)
    history = system.close()
    safety = system.check_safety()
    joins = history.joins()
    # A join needs 3δ of runway; only joins invoked early enough that
    # their window closes inside the horizon can be held to completion.
    cutoff = horizon - 3.0 * delta
    eligible = [j for j in joins if j.invoke_time <= cutoff]
    done = sum(1 for j in eligible if j.done)
    return {
        "joins": len(joins),
        "eligible": len(eligible),
        "done_rate": done / len(eligible) if eligible else 1.0,
        "delivered": system.network.delivered_count,
        "violations": safety.violation_count,
        "checked": safety.checked_count,
    }


def _cells(quick: bool) -> list[dict[str, Any]]:
    """The (n, threshold-fraction) cells, sized to the mode.

    Near-threshold churn at population n replaces ~``frac·n`` processes
    per 3δ window — each join fanning an inquiry round out to all n —
    so the affordable fraction shrinks as n grows: quick mode keeps
    0.9× only at n = 100 and gives n = 10 000 a fixed one-refresh-per-
    tick flow (fraction ~0.0015 of its threshold).

    The above-threshold cell (``above``: fraction and horizon) runs
    write-free: a joiner that adopts a concurrent WriteMsg during its
    first δ wait legitimately skips the inquiry round (Figure 1, line
    03) and completes in δ — the starvation claim is about full 3δ
    joins.
    """
    cells: list[dict[str, Any]] = []
    for n in POPULATIONS:
        cap = population_churn_threshold(n, DELTA)
        above: tuple[float, float] | None = None
        if n <= 100:
            fractions = (0.3, 0.9)
            horizon = 40.0 if quick else 80.0
            writes = 3
            above = (1.3, horizon)
        elif n <= 1_000:
            fractions = (0.3,) if quick else (0.3, 0.9)
            horizon = 18.0 if quick else 30.0
            writes = 2
            # Horizon 18 in both modes: the cell already has 229
            # eligible joins.
            above = (1.15, 18.0)
        elif n <= 10_000:
            fractions = ()
            horizon = 18.0 if quick else 30.0
            writes = 2
        else:
            # The 10⁵ cell: quick mode skips it (it alone costs about
            # as much wall as the rest of the quick grid together);
            # full mode carries it.
            if quick:
                continue
            fractions = ()
            horizon = 20.0
            writes = 2
        for frac in fractions:
            cells.append(
                dict(
                    n=n,
                    frac=frac,
                    rate=frac * cap,
                    horizon=horizon,
                    writes=writes,
                    refresh=False,
                )
            )
        if above is not None:
            frac, above_horizon = above
            cells.append(
                dict(
                    n=n,
                    frac=frac,
                    rate=frac * cap,
                    horizon=above_horizon,
                    writes=0,
                    refresh=False,
                )
            )
        if not fractions:
            # The large-population cell: one membership refresh per tick.
            rate = 1.0 / n
            cells.append(
                dict(
                    n=n,
                    frac=rate / cap,
                    rate=rate,
                    horizon=horizon,
                    writes=writes,
                    refresh=True,
                )
            )
    return cells


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    grid = _cells(quick)
    rows = []
    all_regular = True
    sub_threshold_complete = True
    above_threshold_starves = True
    for g, data in zip(grid, outcomes):
        if data["violations"]:
            all_regular = False
        if g["frac"] < 1.0 and data["eligible"] and data["done_rate"] < 0.8:
            sub_threshold_complete = False
        if g["refresh"] and not (data["eligible"] and data["done_rate"] == 1.0):
            sub_threshold_complete = False
        if g["frac"] > 1.0 and data["done_rate"] > 0.05:
            above_threshold_starves = False
        rows.append(
            dict(
                n=g["n"],
                c_over_cap=round(g["frac"], 4),
                c=round(g["rate"], 6),
                horizon=g["horizon"],
                joins=data["joins"],
                eligible=data["eligible"],
                done_rate=round(data["done_rate"], 3),
                delivered=data["delivered"],
                checked=data["checked"],
                violations=data["violations"],
            )
        )
    notes = [
        "c_over_cap is the cell's churn rate as a fraction of its own "
        "population's threshold (1 − 1/n)/(3δ); eviction is worst-case "
        "oldest_first, the regime where the threshold is exactly tight",
        "done_rate counts only eligible joins (invoked at least 3δ "
        "before the horizon, so their window fits inside the run)",
        "the n = 10⁴ cell runs one membership refresh per tick — each "
        "join's inquiry round still fans out to all 10⁴ processes, the "
        "load the per-event kernel could not sustain",
    ]
    if all_regular and sub_threshold_complete and above_threshold_starves:
        refreshed = populations_label([g["n"] for g in grid if g["refresh"]])
        starved = populations_label([g["n"] for g in grid if g["frac"] > 1.0])
        verdict = (
            "REPRODUCED: every population stays regular, sub-threshold "
            f"joins complete at every n (including {refreshed}), and join "
            f"completion collapses above the threshold ({starved}) under "
            "worst-case eviction"
        )
    elif all_regular:
        verdict = (
            "NOT REPRODUCED: regular, but join completion did not track "
            "the (1 − 1/n)/(3δ) threshold (see done_rate column)"
        )
    else:
        verdict = "NOT REPRODUCED: a population cell violated regularity"
    return rows, notes, verdict


#: Population sizes against each one's own churn threshold.
EXPERIMENT = Experiment(
    id="E17",
    title="Population scaling — the churn threshold at n up to 10⁵",
    claim=(
        "the synchronous protocol survives any churn below "
        "c_max(n) = (1 − 1/n)/(3δ) at every population size: joins "
        "complete and regularity holds below the threshold, join "
        "completion collapses above it under worst-case eviction"
    ),
    params=lambda seed, quick: {
        "delta": DELTA, "populations": POPULATIONS, "seed": seed
    },
    grid=lambda p, quick: [
        RunSpec.seeded(
            f"{__name__}:cell",
            p["seed"],
            f"e17:n={g['n']}:frac={g['frac']:.4f}",
            n=g["n"],
            delta=DELTA,
            rate=g["rate"],
            horizon=g["horizon"],
            writes=g["writes"],
        )
        for g in _cells(quick)
    ],
    judge=_judge,
)
