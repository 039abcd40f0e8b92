"""Experiment harness: the declaration every claim is, and its one run.

Each module under ``experiments/`` declares the claims it regenerates as
:class:`Experiment` rows — the paper's claim, the parameters the report
prints, the grid of :class:`~repro.exec.RunSpec` cells that measure it
and the judgement that turns their outcomes into a table and a verdict.
:func:`run` executes any row: it builds the grid, runs it through the
engine once and renders an :class:`ExperimentResult`.  ``quick=True``
shrinks repetitions/horizons for the test suite and CI; the full grid
is the same declaration at full size.

A cell that runs the read-heavy workload calls
:func:`~repro.workloads.generators.drive_read_heavy` with its own RNG
stream names and key picker — the one drive the explorer, the digest
workloads and the CLI run commands share — so this module holds only
the declaration, its run and the rendering of its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..exec.runner import run_specs
from ..exec.spec import RunSpec
from ..sim.errors import ExperimentError

#: What a judgement returns: the table rows, the notes and the verdict.
Judgement = tuple[list[dict[str, Any]], list[str], str]


@dataclass(frozen=True)
class Experiment:
    """One row of the battery: a paper claim and how to regenerate it.

    ``params(seed, quick)`` is the parameter dict the report prints;
    ``grid(params, quick)`` lists the cells that measure the claim, each
    naming its cell function as ``"module:function"``; ``judge(params,
    quick, outcomes)`` reads the cells' outcomes, in grid order, and
    returns the rows, the notes and the verdict (which may read outcome
    fields the rows drop).
    """

    id: str
    title: str
    claim: str
    params: Callable[[int, bool], dict[str, Any]]
    grid: Callable[[dict[str, Any], bool], list[RunSpec]]
    judge: Callable[[dict[str, Any], bool, list[Any]], Judgement]


def run(
    experiment: Experiment,
    seed: int = 0,
    quick: bool = False,
    workers: int | None = None,
) -> ExperimentResult:
    """Regenerate one claim: its grid, run once through the engine."""
    params = experiment.params(seed, quick)
    outcomes = run_specs(experiment.grid(params, quick), workers=workers)
    rows, notes, verdict = experiment.judge(params, quick, outcomes)
    return ExperimentResult(
        experiment_id=experiment.id,
        title=experiment.title,
        paper_claim=experiment.claim,
        params=params,
        rows=rows,
        notes=notes,
        verdict=verdict,
    )


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rows plus provenance."""

    experiment_id: str
    title: str
    paper_claim: str
    params: dict[str, Any] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    verdict: str = ""

    @property
    def columns(self) -> tuple[str, ...]:
        """The table's columns: the first row's keys, in order."""
        return tuple(self.rows[0]) if self.rows else ()

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExperimentError(
                f"unknown column {name!r}; have {list(self.columns)}"
            )
        return [row.get(name) for row in self.rows]

    def to_table(self) -> str:
        """Render rows as a fixed-width text table (the 'paper table')."""
        return format_table(self.columns, self.rows)

    def describe(self) -> str:
        """Full report: header, claim, table, notes, verdict."""
        lines = [
            f"=== {self.experiment_id}: {self.title} ===",
            f"paper claim: {self.paper_claim}",
        ]
        if self.params:
            pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
            lines.append(f"parameters: {pairs}")
        lines.append("")
        lines.append(self.to_table())
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        if self.verdict:
            lines.append("")
            lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def format_table(columns: Sequence[str], rows: list[dict[str, Any]]) -> str:
    """Fixed-width text rendering of dict-rows."""
    if not rows:
        return "(no rows)"

    def render(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if isinstance(value, bool):
            return "yes" if value else "no"
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in rendered))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in rendered
    ]
    return "\n".join([header, separator, *body])


def totals(group: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Field-wise sums of a repetition group's numeric outcome fields."""
    return {
        key: sum(outcome[key] for outcome in group)
        for key, value in group[0].items()
        if isinstance(value, (int, float))
    }


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def populations_label(populations: Sequence[int]) -> str:
    """How a verdict names the populations that ran: ``n = 10⁴`` for
    one, ``n ∈ {10³, 10⁴}`` for several (powers of ten as such, any
    other n as its digits), so a verdict built from the grid never
    names a population the grid skipped."""
    names = []
    for n in sorted(set(populations)):
        exponent = len(str(n)) - 1
        names.append(
            "10" + str(exponent).translate(_SUPERSCRIPTS)
            if n == 10**exponent
            else str(n)
        )
    return f"n = {names[0]}" if len(names) == 1 else f"n ∈ {{{', '.join(names)}}}"
