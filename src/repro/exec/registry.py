"""Cell kinds: a spec's kind names its module-level cell function.

A kind is written ``"module:function"`` — every experiment row and the
explorer name their cells this way, beside the cell, as do ad-hoc cells
in tests and one-off sweeps.  Resolution is lazy (the module is
imported on first use, in whichever process executes the spec), so
worker processes need no registration side effects — unpickling a
:class:`~repro.exec.spec.RunSpec` carries only the kind string.  Every
cell function takes only plain keyword arguments (the spec's params)
and returns a picklable value.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from ..sim.errors import ExperimentError

#: Resolved callables, cached per process.
_RESOLVED: dict[str, Callable[..., Any]] = {}


def resolve(kind: str) -> Callable[..., Any]:
    """Return the cell function a spec kind names.

    Raises :class:`ExperimentError` for a kind not of the form
    ``"module:function"`` or one that does not import to a callable.
    """
    cached = _RESOLVED.get(kind)
    if cached is not None:
        return cached
    module_name, _, attr = kind.partition(":")
    if not module_name or not attr:
        raise ExperimentError(
            f"cell kind {kind!r} is not of the form 'module:function'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ExperimentError(
            f"cell kind {kind!r} names unimportable module {module_name!r}: {error}"
        ) from error
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise ExperimentError(f"cell kind {kind!r} is not a callable")
    _RESOLVED[kind] = fn
    return fn
