"""E3 — Figure 3(b): the ``wait(δ)`` at join line 02 restores safety.

Paper claim: under the same adversarial schedule as Figure 3(a), a
joiner that first waits ``δ`` can only inquire *after* the concurrent
write's dissemination deadline, so every reply it uses carries the new
value and its reads are correct.
"""

from __future__ import annotations

from typing import Any

from ..exec.spec import RunSpec
from ..workloads.scenarios import figure_3b
from .e02_figure3a import scenario_rows
from .harness import Experiment, Judgement


def cell(seed: int) -> dict[str, Any]:
    """Replay the Figure 3(b) schedule; summarize it as data."""
    scenario = figure_3b(seed=seed)
    fresh_read = scenario.handles["read"]
    return {
        "rows": scenario_rows(scenario),
        "narrative": list(scenario.narrative),
        "safe": scenario.safety.is_safe,
        "live": scenario.liveness.is_live,
        "read_done": fresh_read.done,
        "read_result": fresh_read.result,
    }


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    (outcome,) = outcomes
    reproduced = (
        outcome["safe"]
        and outcome["read_done"]
        and outcome["read_result"] == "v1"
        and outcome["live"]
    )
    verdict = (
        "REPRODUCED: the join adopted 'v1' and the read returned it; run safe"
        if reproduced
        else "NOT REPRODUCED: expected a safe run under the full protocol"
    )
    return outcome["rows"], list(outcome["narrative"]), verdict


#: The full synchronous protocol on the same schedule: one cell.
EXPERIMENT = Experiment(
    id="E3",
    title="Figure 3(b) — join with wait(δ)",
    claim=(
        "With the wait, the same schedule yields a join that adopts the "
        "last written value; subsequent reads are safe."
    ),
    params=lambda seed, quick: {"seed": seed, "protocol": "sync", "n": 3},
    grid=lambda p, quick: [
        RunSpec(kind=f"{__name__}:cell", params={"seed": p["seed"]}, label="e03")
    ],
    judge=_judge,
)
