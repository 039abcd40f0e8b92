"""Workloads: operation plans, drivers, scripted figure scenarios and
the adversarial scenario explorer.

The plan generators and the driver — what every run uses — are imported
here; the explorer's and the scripted scenarios' names resolve on first
use (PEP 562), so a judged run or ``repro run`` never imports the
explorer, and through it ``repro.exec`` and ``concurrent.futures``.
"""

from .._lazy import lazy_names
from .generators import (
    periodic_times,
    periodic_writes,
    poisson_reads,
    poisson_times,
    read_heavy_plan,
    write_heavy_plan,
)
from .schedule import ReadOp, WorkloadDriver, WorkloadOp, WorkloadStats, WriteOp

#: Name → the submodule that defines it, imported when first asked for.
__getattr__, __dir__ = lazy_names(__name__, {
    **dict.fromkeys(
        (
            "ExplorationReport",
            "ScenarioOutcome",
            "ScenarioSpec",
            "build_plan",
            "classify_scenario",
            "explore",
            "run_scenario",
            "shrink_plan",
        ),
        "explorer",
    ),
    **dict.fromkeys(
        (
            "DelayRule",
            "ScenarioResult",
            "ScriptedDelays",
            "figure_3a",
            "figure_3b",
            "new_old_inversion",
        ),
        "scenarios",
    ),
})

__all__ = [
    "ExplorationReport",
    "ScenarioOutcome",
    "ScenarioSpec",
    "build_plan",
    "classify_scenario",
    "explore",
    "run_scenario",
    "shrink_plan",
    "periodic_times",
    "periodic_writes",
    "poisson_reads",
    "poisson_times",
    "read_heavy_plan",
    "write_heavy_plan",
    "DelayRule",
    "ScenarioResult",
    "ScriptedDelays",
    "figure_3a",
    "figure_3b",
    "new_old_inversion",
    "ReadOp",
    "WorkloadDriver",
    "WorkloadOp",
    "WorkloadStats",
    "WriteOp",
]
