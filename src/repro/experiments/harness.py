"""Experiment harness: shared result types and table rendering.

Every experiment module exposes ``run(seed=0, quick=False, ...)`` and
returns an :class:`ExperimentResult` whose ``rows`` regenerate the
corresponding claim of the paper (see the E-index in ``DESIGN.md``).
``quick=True`` shrinks repetitions/horizons for the test suite and CI;
the full parameterization is what ``EXPERIMENTS.md`` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..sim.errors import ExperimentError


@dataclass
class ExperimentResult:
    """One reproduced table/figure: rows plus provenance."""

    experiment_id: str
    title: str
    paper_claim: str
    params: dict[str, Any] = field(default_factory=dict)
    columns: tuple[str, ...] = ()
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    verdict: str = ""

    def add_row(self, **values: Any) -> None:
        """Append one table row (columns are taken from the first row)."""
        if not self.columns:
            self.columns = tuple(values)
        self.rows.append(values)

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


#: Signature every experiment module's ``run`` conforms to.
ExperimentRunner = Callable[..., ExperimentResult]
