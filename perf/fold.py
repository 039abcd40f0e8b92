"""Fold a cProfile run by layer — taken from outside the program.

A *layer* is a package under ``src/repro/``.  Every profiled function
whose file sits in one of :data:`LAYERS` charges its self time there;
the rest of ``repro`` and the harness's own files go to ``other``.
Builtins, the standard library and generated code (a dataclass's
``__init__`` lives in ``<string>``) have no layer of their own: their
self time is charged to whoever called them, through the profiler's
caller edges (``heappush`` to ``sim``, ``random`` to whichever of
``net`` / ``churn`` / ``workloads`` drew the number).  What cannot be
traced back to a layer is reported as ``unattributed``.

The fold reads ``Profile.getstats()``, not ``pstats``: pstats keys
functions by (file, line, name) and so merges every dataclass
``__init__`` of the program into one entry.

cProfile charges a fixed cost per call, so a layer made of many small
calls reads larger than it is: shares compare two commits, not two
layers in absolute terms.  Its call graph is flat, too: a call that
reaches a layer *through* a builtin is apportioned among everyone who
calls that builtin.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

LAYERS = (
    "sim",
    "net",
    "protocols",
    "churn",
    "faults",
    "core",
    "runtime",
    "cluster",
    "workloads",
)
OTHER = "other"
UNATTRIBUTED = "unattributed"


def fold(entries: Iterable[Any], repro_dir: str, perf_dir: str) -> dict[str, Any]:
    """Fold ``cProfile.Profile.getstats()`` into per-layer self time.

    Returns ``self_s`` (layer → seconds, plus ``other`` and
    ``unattributed``), ``calls_in`` (calls entering each layer from
    outside it), ``edges`` (``"from>to"`` → calls) and ``total_s``.
    """
    repro_prefix = os.path.join(repro_dir, "")
    perf_prefix = os.path.join(perf_dir, "")

    def own_layer(code: Any) -> str | None:
        filename = getattr(code, "co_filename", "")
        if filename.startswith(repro_prefix):
            package = filename[len(repro_prefix):].split(os.sep, 1)[0]
            return package if package in LAYERS else OTHER
        if filename.startswith(perf_prefix):
            return OTHER
        return None

    # Functions are keyed by code object (a string for builtins); equal
    # keys are summed, never overwritten.
    self_time: dict[Any, float] = {}
    callers: dict[Any, dict[Any, list[float]]] = {}  # callee → caller → edge
    for entry in entries:
        self_time[entry.code] = self_time.get(entry.code, 0.0) + entry.inlinetime
        for sub in entry.calls or ():
            edge = callers.setdefault(sub.code, {}).setdefault(entry.code, [0, 0.0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime
            edge[2] += sub.totaltime

    resolved: dict[Any, dict[str, float]] = {}
    in_progress: set[Any] = set()

    def resolve(code: Any) -> dict[str, float]:
        """The layers ``code`` runs on behalf of, as shares summing to 1."""
        layer = own_layer(code)
        if layer is not None:
            return {layer: 1.0}
        if code in resolved:
            return resolved[code]
        if code in in_progress:  # stdlib recursion: give up on this path
            return {UNATTRIBUTED: 1.0}
        in_progress.add(code)
        inbound = callers.get(code, {})
        weight = sum(edge[2] for edge in inbound.values())
        shares: dict[str, float] = {}
        if weight <= 0.0:
            shares[UNATTRIBUTED] = 1.0
        else:
            for caller, edge in inbound.items():
                for name, share in resolve(caller).items():
                    shares[name] = shares.get(name, 0.0) + share * edge[2] / weight
        in_progress.discard(code)
        resolved[code] = shares
        return shares

    self_s = dict.fromkeys((*LAYERS, OTHER, UNATTRIBUTED), 0.0)
    edges: dict[str, float] = {}
    for code, seconds in self_time.items():
        layer = own_layer(code)
        inbound = callers.get(code, {})
        if layer is not None:
            self_s[layer] += seconds
            for caller, edge in inbound.items():
                for name, share in resolve(caller).items():
                    if name != layer:
                        key = f"{name}>{layer}"
                        edges[key] = edges.get(key, 0.0) + share * edge[0]
            continue
        edge_total = sum(edge[1] for edge in inbound.values())
        if edge_total <= 0.0:
            self_s[UNATTRIBUTED] += seconds
            continue
        for caller, edge in inbound.items():
            for name, share in resolve(caller).items():
                self_s[name] += seconds * share * edge[1] / edge_total

    calls_in = dict.fromkeys(LAYERS, 0.0)
    for key, calls in edges.items():
        target = key.split(">", 1)[1]
        if target in calls_in:
            calls_in[target] += calls
    return {
        "self_s": self_s,
        "calls_in": {name: round(calls) for name, calls in calls_in.items()},
        "edges": {key: round(calls) for key, calls in sorted(edges.items())},
        "total_s": sum(self_s.values()),
    }
