"""The shared execution engine: declarative runs, parallel execution.

Every sweep in the repository — the grid of each row of the
experiment battery, the adversarial scenario explorer and the
seed-corpus replay — describes its cells as :class:`RunSpec` values
and hands them to a :class:`Runner`, which maps them to outcomes
through a ``concurrent.futures.ProcessPoolExecutor``.

The engine's contract (see ROADMAP.md, "Parallel execution engine"):

* **Declarative cells.** A :class:`RunSpec` names its cell function
  as a ``"module:function"`` *kind* (resolved lazily, so specs pickle
  as data, not code) plus plain keyword parameters.  A cell is a pure
  function of its spec: it builds its own ``DynamicSystem`` from an
  explicit seed and returns a picklable outcome.
* **Derived seeds.** Per-cell seeds come from
  :func:`repro.sim.rng.derive_seed` over the root seed and a cell
  name (``RunSpec.seeded``), never from shared RNG state, so cells
  are independent of execution order and process placement.
* **Deterministic order.** :meth:`Runner.map` returns outcomes in
  spec order regardless of worker count or completion order —
  ``workers=N`` output is byte-identical to ``workers=1``.
"""

from __future__ import annotations

from .registry import resolve
from .runner import Runner, execute, grouped, run_specs
from .spec import RunSpec

__all__ = [
    "Runner",
    "RunSpec",
    "execute",
    "grouped",
    "resolve",
    "run_specs",
]
