"""E1 — the introduction's new/old inversion figure.

Paper claim: a regular register may exhibit a new/old inversion — two
non-overlapping reads, both concurrent with the same write, where the
earlier read returns the newer value.  This is what separates regular
from atomic registers, and the synchronous protocol genuinely exhibits
it (it implements regularity, not atomicity).
"""

from __future__ import annotations

from typing import Any

from ..exec.spec import RunSpec
from ..workloads.scenarios import new_old_inversion
from .harness import Experiment, Judgement


def cell(seed: int) -> dict[str, Any]:
    """Replay the scripted inversion scenario; summarize it as data."""
    scenario = new_old_inversion(seed=seed)
    rows = []
    for label, key in (
        ("write(v1)", "write"),
        ("read by p0002", "read_new"),
        ("read by p0003", "read_old"),
    ):
        handle = scenario.handles[key]
        rows.append(
            {
                "operation": label,
                "invoked": handle.invoke_time,
                "responded": handle.response_time,
                "outcome": repr(handle.result),
            }
        )
    return {
        "rows": rows,
        "narrative": list(scenario.narrative),
        "inversion_found": bool(scenario.atomicity.inversions),
        "regular": scenario.safety.is_safe,
    }


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    (outcome,) = outcomes
    notes = [
        "both reads overlap the write's interval [20, 25]; the earlier read "
        "returned 'v1' (new), the later 'v0' (old)",
        *outcome["narrative"],
    ]
    verdict = (
        "REPRODUCED: run is regular yet exhibits a new/old inversion"
        if (outcome["inversion_found"] and outcome["regular"])
        else "NOT REPRODUCED: expected a regular-but-not-atomic run"
    )
    return outcome["rows"], notes, verdict


#: A single scripted run either way: ``quick`` changes nothing.
EXPERIMENT = Experiment(
    id="E1",
    title="New/old inversion (introduction figure)",
    claim=(
        "A regular register admits runs where an earlier read returns a "
        "newer value than a later read; an atomic register does not."
    ),
    params=lambda seed, quick: {"seed": seed, "protocol": "sync", "n": 4},
    grid=lambda p, quick: [
        RunSpec(kind=f"{__name__}:cell", params={"seed": p["seed"]}, label="e01")
    ],
    judge=_judge,
)
