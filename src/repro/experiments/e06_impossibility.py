"""E6 — Theorem 2: no regular register in a fully asynchronous dynamic system.

Theorem 2 is an impossibility, so simulation cannot *prove* it; what it
can do — and what this experiment does — is exhibit the adversary
against both styles of protocol, which is exactly the dichotomy the
proof sketch leans on:

* **Horn A (timers are unsafe).**  A protocol that relies on a delay
  bound (the synchronous protocol, whose waits are calibrated to ``δ``)
  is run under unbounded delays.  Its write "completes" after ``δ``
  although the WRITE messages are still in flight; joins adopt stale
  values; reads violate regularity.  The violation rate grows with the
  mean-delay inflation.
* **Horn B (quorums are not live).**  A protocol that instead waits for
  acknowledgements (the eventually-synchronous protocol) stays safe but
  can be delayed forever: the adversary postpones every REPLY to a
  victim joiner past any horizon.  For every finite patience ``T`` the
  victim has not returned by ``T`` — and since ``T`` is arbitrary, no
  bounded- or unbounded-patience rule terminates in all runs.

Together: under full asynchrony + churn, a protocol is either unsafe
(returns without fresh evidence) or not live (waits for evidence that
the adversary withholds) — Theorem 2's content, made executable.
"""

from __future__ import annotations

from typing import Any

from ..exec.spec import RunSpec
from ..net.delay import AdversarialDelay, AsynchronousDelay
from ..protocols.es_reg import EsReply
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from ..sim.clock import Time
from ..workloads.generators import drive_read_heavy
from ..workloads.schedule import WorkloadDriver
from .harness import Experiment, Judgement

N = 20
DELTA = 4.0
#: Mean point-to-point delay, as a multiple of the δ the protocol believes.
INFLATIONS = (0.5, 1.0, 2.0, 4.0)
#: Horizons at which Horn B checks the victim is still blocked.
PATIENCES = (50.0, 200.0, 800.0)


def horn_a_cell(
    seed: int, n: int, delta: float, inflation: float, horizon: float
) -> dict[str, Any]:
    """Sync protocol under one asynchronous-delay inflation: its row."""
    config = SystemConfig(
        n=n,
        delta=delta,
        protocol="sync",
        seed=seed,
        delay=AsynchronousDelay(mean=inflation * delta, min_delay=0.1),
        trace=False,
    )
    system = DynamicSystem(config)
    system.attach_churn(rate=0.02)
    drive_read_heavy(
        system, WorkloadDriver(system), horizon, horizon - 3.0 * delta,
        5.0 * delta, 0.6, "e06.plan",
    )
    safety = system.check_safety(check_joins=False)
    return dict(
        horn="A",
        inflation=inflation,
        patience="",
        reads=safety.checked_count,
        violation_rate=safety.violation_rate,
        victim_blocked="",
    )


def horn_b_cell(
    seed: int, n: int, delta: float, patiences: tuple[float, ...]
) -> list[dict[str, Any]]:
    """ES protocol with an adversary starving one joiner of replies: one
    row per probed patience.

    One sequential run probed at increasing horizons: the adversarial
    delay closes over the victim pid chosen mid-run, so this horn is a
    single engine cell, not a per-patience grid.
    """
    victim_box: dict[str, str] = {}

    def starve_victim(
        sender: str, dest: str, payload: Any, send_time: Time
    ) -> Time | None:
        victim = victim_box.get("pid")
        if victim is not None and dest == victim and isinstance(payload, EsReply):
            return 1_000_000.0  # finite (channels stay reliable) but unbounded
        return None  # fall through to the fast fallback

    config = SystemConfig(
        n=n,
        delta=delta,
        protocol="es",
        seed=seed,
        delay=AdversarialDelay(
            starve_victim, fallback=AsynchronousDelay(mean=delta, min_delay=0.1)
        ),
        trace=False,
    )
    system = DynamicSystem(config)
    # Churn keeps the system dynamic; the joiner minimum stay keeps the
    # run within the model's other hypotheses so starvation is the only
    # adversarial ingredient.
    system.attach_churn(rate=0.005, min_stay=3.0 * delta)
    system.run_until(5.0)
    victim_box["pid"] = system.spawn_joiner()
    victim_join = system.history.joins()[-1]
    # The victim must not leave: Theorem 2's bad run is about an
    # operation by a process that *stays* yet never returns.
    controller = system.churn
    assert controller is not None
    controller.protect(victim_box["pid"])
    probes = []
    for patience in sorted(patiences):
        system.run_until(patience)
        probes.append(
            dict(
                horn="B",
                inflation=0.0,
                patience=patience,
                reads=0,
                violation_rate=0.0,
                victim_blocked=victim_join.pending,
            )
        )
    system.close()
    return probes


def _grid(p: dict[str, Any], quick: bool) -> list[RunSpec]:
    horizon = 150.0 if quick else 400.0
    return [
        *(
            RunSpec.seeded(
                f"{__name__}:horn_a_cell", p["seed"], f"e06a:{inflation}",
                n=N, delta=DELTA, inflation=inflation, horizon=horizon,
            )
            for inflation in INFLATIONS
        ),
        RunSpec.seeded(
            f"{__name__}:horn_b_cell", p["seed"], "e06b",
            n=N, delta=DELTA, patiences=PATIENCES,
        ),
    ]


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    *horn_a, horn_b = outcomes
    rows = [*horn_a, *horn_b]
    notes = [
        "Horn A: the synchronous protocol believes δ="
        f"{DELTA}; actual delays are exponential with the stated inflation — "
        "write/join waits expire before dissemination finishes",
        "Horn B: every REPLY addressed to the victim joiner is delayed to "
        "t=1e6; the victim's join is still pending at every probed horizon "
        "while the rest of the system keeps running",
    ]
    a_breaks = any(
        r["violation_rate"] > 0 for r in rows if r["horn"] == "A" and r["inflation"] > 1
    )
    b_blocks = all(r["victim_blocked"] for r in rows if r["horn"] == "B")
    verdict = (
        "REPRODUCED: the timer protocol turns unsafe and the quorum protocol "
        "can be blocked past every horizon"
        if (a_breaks and b_blocks)
        else "NOT REPRODUCED: one of the horns failed to materialize"
    )
    return rows, notes, verdict


#: Both horns in one grid: one cell per inflation, then Horn B's run.
EXPERIMENT = Experiment(
    id="E6",
    title="Theorem 2 — impossibility under full asynchrony",
    claim=(
        "with no bound on message delays, a run always exists in which "
        "the value obtained is older than the last completed write (or "
        "the operation never returns)"
    ),
    params=lambda seed, quick: {"n": N, "delta": DELTA, "seed": seed},
    grid=_grid,
    judge=_judge,
)
