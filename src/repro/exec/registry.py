"""Cell-kind registry: spec kinds resolve to module-level functions.

The registry is a static table mapping each kind to a
``"module:function"`` entry point.  Resolution is lazy (the module is
imported on first use, in whichever process executes the spec), so
worker processes need no registration side effects — unpickling a
:class:`~repro.exec.spec.RunSpec` carries only the kind string.

A kind not present in the table may itself be written in
``"module:function"`` form; every experiment's cells name themselves
this way (the declaration beside the cell spells it), as do ad-hoc
cells in tests and one-off sweeps.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from ..sim.errors import ExperimentError

#: kind -> "module:function".  Every cell function takes only plain
#: keyword arguments (the spec's params) and returns a picklable value.
ENTRY_POINTS: dict[str, str] = {
    "scenario": "repro.workloads.explorer:scenario_cell",
}

#: Resolved callables, cached per process.
_RESOLVED: dict[str, Callable[..., Any]] = {}


def resolve(kind: str) -> Callable[..., Any]:
    """Return the cell function a spec kind names.

    Raises :class:`ExperimentError` for an unknown kind or an entry
    point that does not import to a callable.
    """
    cached = _RESOLVED.get(kind)
    if cached is not None:
        return cached
    entry = ENTRY_POINTS.get(kind, kind)
    module_name, _, attr = entry.partition(":")
    if not module_name or not attr:
        raise ExperimentError(
            f"unknown cell kind {kind!r}; registered kinds: "
            f"{', '.join(sorted(ENTRY_POINTS))} (or use 'module:function')"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ExperimentError(
            f"cell kind {kind!r} names unimportable module {module_name!r}: {error}"
        ) from error
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise ExperimentError(
            f"cell kind {kind!r} entry point {entry!r} is not a callable"
        )
    _RESOLVED[kind] = fn
    return fn
