"""E10 — dynamic protocols vs the static ABD baseline under churn.

Paper positioning (Sections 1 and 6): classical register protocols for
static systems — ABD [3] — assume a fixed membership with a correct
majority; the paper's protocols replace that with churn-tolerant
mechanisms (timed dissemination, or majorities of a *constant-size but
rotating* population).

The experiment runs the same read-heavy workload under increasing churn
for the three protocols.  The static baseline keeps quorums over the
*initial* membership: as churn replaces those members, ABD operations
stop completing — with the cumulative refresh ``c · horizon`` crossing
half the universe as the predicted cliff — while the dynamic protocols
keep serving.
"""

from __future__ import annotations

from typing import Any

from ..exec.spec import RunSpec
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from ..workloads.generators import drive_read_heavy
from ..workloads.schedule import WorkloadDriver
from .harness import Experiment, Judgement

N = 20
DELTA = 4.0
#: The static baseline's quorum size over its fixed universe.
MAJORITY = N // 2 + 1
CHURN_RATES = (0.0, 0.002, 0.005, 0.01, 0.02)


def _staying_completion(handles: list) -> float:
    """Completion rate among operations whose invoker did not leave."""
    staying = [h for h in handles if not h.abandoned]
    if not staying:
        return 1.0
    return sum(1 for h in staying if h.done) / len(staying)


def cell(
    seed: int,
    n: int,
    delta: float,
    protocol: str,
    c: float,
    horizon: float,
) -> dict[str, Any]:
    """One (protocol, churn rate): its table row."""
    config = SystemConfig(
        n=n, delta=delta, protocol=protocol, seed=seed, trace=False
    )
    system = DynamicSystem(config)
    if c > 0:
        system.attach_churn(rate=c, min_stay=3.0 * delta)
    driver = WorkloadDriver(system)
    drive_read_heavy(
        system, driver, horizon, horizon - 8.0 * delta, 8.0 * delta, 0.3,
        "e10.plan",
    )
    return dict(
        protocol=protocol,
        c=c,
        replicas_left=sum(
            1 for pid in system.seed_pids if system.membership.is_present(pid)
        ),
        reads_issued=driver.stats.reads_issued,
        read_done_rate=_staying_completion(system.history.reads()),
        write_done_rate=_staying_completion(system.history.writes()),
        violations=system.check_safety(check_joins=False).violation_count,
    )


def _judge(p: dict[str, Any], quick: bool, rows: list[Any]) -> Judgement:
    cliff_seen = False
    dynamic_fine = True
    for row in rows:
        row_ok = (
            row["read_done_rate"] > 0.99
            and row["write_done_rate"] > 0.99
            and row["violations"] == 0
        )
        if row["protocol"] == "abd" and row["replicas_left"] < MAJORITY and not row_ok:
            cliff_seen = True
        if row["protocol"] != "abd" and not row_ok:
            dynamic_fine = False
    notes = [
        "replicas_left = initial members still present at the horizon; ABD "
        f"quorums need {MAJORITY} of them, the dynamic protocols none",
        "done rates are over operations whose invoker stayed in the system "
        "(the spec excuses operations abandoned by a departure)",
    ]
    verdict = (
        "REPRODUCED: ABD stalls once churn consumes its universe, while "
        "both dynamic protocols keep completing safely"
        if (cliff_seen and dynamic_fine)
        else "NOT REPRODUCED: expected the static baseline (and only it) to stall"
    )
    return rows, notes, verdict


EXPERIMENT = Experiment(
    id="E10",
    title="Dynamic protocols vs static ABD under churn",
    claim=(
        "static-majority protocols lose liveness once churn replaces "
        "half of their fixed universe; the dynamic protocols do not"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, horizon=200.0 if quick else 600.0, seed=seed
    ),
    grid=lambda p, quick: [
        RunSpec.seeded(
            f"{__name__}:cell", p["seed"], f"e10:{protocol}:{c}",
            n=N, delta=DELTA, protocol=protocol, c=c, horizon=p["horizon"],
        )
        for protocol in ("sync", "es", "abd")
        for c in CHURN_RATES
    ],
    judge=_judge,
)
