"""Package attributes that import their submodule on first use (PEP 562).

``repro`` and ``repro.workloads`` re-export names from submodules that a
plain run never touches (the renderers, the explorer, the scripted
scenarios); resolving those lazily keeps them — and what they import —
out of every process that does not ask for them, while ``__all__``,
``from package import name`` and ``dir(package)`` work as before.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_names(
    package: str, table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package`` for
    ``table``: exported name → the submodule (relative to ``package``)
    that defines it.  A resolved name is stored on the package, so the
    hook runs once per name."""

    def __getattr__(name: str) -> Any:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *table})

    return __getattr__, __dir__
