"""E2 — Figure 3(a): the join protocol without ``wait(δ)`` is unsafe.

Paper claim: if a joiner skips the line-02 wait and inquires
immediately, a legal synchronous schedule exists in which it adopts the
value that preceded a *completed* write; its subsequent read (with no
concurrent write) then returns that stale value — a safety violation.
"""

from __future__ import annotations

from typing import Any

from ..exec.spec import RunSpec
from ..workloads.scenarios import figure_3a
from .harness import Experiment, Judgement


def scenario_rows(scenario: Any) -> list[dict[str, Any]]:
    """One row per operation of a replayed Figure 3 schedule (E2, E3)."""
    return [
        {
            "operation": label,
            "process": handle.process_id,
            "invoked": handle.invoke_time,
            "responded": handle.response_time,
            "outcome": repr(handle.result.value if label == "join" else handle.result),
        }
        for label, handle in scenario.handles.items()
    ]


def cell(seed: int) -> dict[str, Any]:
    """Replay the Figure 3(a) schedule; summarize it as data."""
    scenario = figure_3a(seed=seed)
    stale_read = scenario.handles["read"]
    return {
        "rows": scenario_rows(scenario),
        "narrative": list(scenario.narrative),
        "violations": [j.explanation for j in scenario.safety.violations],
        "safe": scenario.safety.is_safe,
        "read_done": stale_read.done,
        "read_result": stale_read.result,
    }


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    (outcome,) = outcomes
    notes = [
        *outcome["narrative"],
        *(f"violation: {explanation}" for explanation in outcome["violations"]),
    ]
    reproduced = (
        not outcome["safe"]
        and outcome["read_done"]
        and outcome["read_result"] == "v0"
    )
    verdict = (
        "REPRODUCED: the post-write read returned the stale 'v0'"
        if reproduced
        else "NOT REPRODUCED: expected a stale read under the naive protocol"
    )
    return outcome["rows"], notes, verdict


#: The naive protocol on the figure's scripted schedule: one cell.
EXPERIMENT = Experiment(
    id="E2",
    title="Figure 3(a) — join without wait(δ)",
    claim=(
        "Without the wait at join line 02, the joiner can install the "
        "previous value of the register and serve it to later reads."
    ),
    params=lambda seed, quick: {"seed": seed, "protocol": "naive", "n": 3},
    grid=lambda p, quick: [
        RunSpec(kind=f"{__name__}:cell", params={"seed": p["seed"]}, label="e02")
    ],
    judge=_judge,
)
