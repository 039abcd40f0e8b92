"""Declarative run specifications.

A :class:`RunSpec` is the unit of work the execution engine schedules:
a *kind* (the cell function as ``"module:function"``, see
:mod:`repro.exec.registry`) plus the plain keyword parameters that
cell function receives.  Specs carry data only — the callable is
resolved lazily, in whichever process executes the spec — so a spec
pickles cheaply across the worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..sim.rng import derive_seed


@dataclass(frozen=True)
class RunSpec:
    """One cell of a sweep: a cell kind plus its parameters.

    ``params`` must be picklable (plain values, dataclasses, tuples);
    cells that need rich objects rebuild them from these parameters.
    ``label`` is for reporting only and never influences execution.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    @classmethod
    def seeded(
        cls,
        kind: str,
        root_seed: int,
        cell: str,
        label: str = "",
        **params: Any,
    ) -> "RunSpec":
        """A spec whose ``seed`` parameter is derived from a cell name.

        ``seed = derive_seed(root_seed, cell)`` — the same derivation
        the experiments have always used per repetition, so a grid
        refactored onto the engine reproduces its historical tables
        exactly, and cells stay independent of execution order.
        """
        return cls(
            kind=kind,
            params={**params, "seed": derive_seed(root_seed, cell)},
            label=label or cell,
        )
