"""The Runner: specs in, outcomes out, spec order preserved.

``Runner.map`` executes every :class:`~repro.exec.spec.RunSpec`
through a ``concurrent.futures.ProcessPoolExecutor`` and collects the
results **in spec order** (``Executor.map`` semantics), so a sweep's
output is byte-identical at any worker count.  Determinism needs no
locks: every cell derives its own seed from its spec and builds its
own simulation, so cells share no mutable state whatsoever.

``workers=1`` (or a single spec) short-circuits to a plain in-process
loop — the serial path and the parallel path run the *same* cell
functions on the *same* specs, which is what the equivalence property
suite asserts.  Environments that cannot run a process pool at all
(no ``fork``/semaphores, e.g. some sandboxes — whether that surfaces
at pool construction or only when the first worker is spawned)
deterministically fall back to that serial path.

A pooled cell that runs past :data:`CELL_BUDGET_S` is taken to be hung:
its pool's workers are terminated and an ``ExperimentError`` names it.

Pools are cached per worker count and reused across ``map`` calls, so
one ``repro experiments`` invocation pays worker startup once for its
whole battery, not per grid.  Safe to share: cells are pure functions
of their specs, and ``Executor.map`` keeps result order regardless of
which pool ran the cells.

A cell is a generation.  A dropped ``DynamicSystem`` is one big
reference cycle (system ↔ engine ↔ network ↔ nodes ↔ queued deliveries)
that only the cyclic collector can free, and grids build and drop
hundreds per process.  :func:`execute` runs the whole cell with the
collector paused, so nothing the cell allocated has been promoted, and
ends it with ``gc.collect(0)``: the young collection walks exactly what
the cell built and frees the dead system.  Not a full collection — that
costs in proportion to the *host's* heap (28 ms a cell inside pytest).
"""

from __future__ import annotations

import atexit
import gc
import os
import warnings
from concurrent.futures import BrokenExecutor
from typing import Any, Iterable, Sequence

from ..sim.engine import collector_paused
from ..sim.errors import ExperimentError
from .registry import resolve
from .spec import RunSpec


def execute(spec: RunSpec) -> Any:
    """Run one spec in the current process (the pool's work function),
    as one generation — see the module docstring."""
    with collector_paused():
        outcome = resolve(spec.kind)(**spec.params)
        gc.collect(0)
    return outcome


def ProcessPoolExecutor(max_workers: int) -> Any:
    """``concurrent.futures.ProcessPoolExecutor``, imported only when a
    pool is actually built (hence named for the class it stands in
    for).  Its module drags ``multiprocessing`` in — ~5 MB and 30-50 ms
    — and this module is imported by every CLI start and every judged
    run, while serial runs never build a pool."""
    from concurrent.futures import ProcessPoolExecutor as pool_class

    return pool_class(max_workers=max_workers)


def default_workers() -> int:
    """The engine's default parallelism: every available core."""
    return os.cpu_count() or 1


#: Live executors, keyed by worker count (reused across Runner.map calls;
#: :func:`_discard_pools` releases them at exit).  Keyed by the Runner's
#: configured count, not the per-call spec count, so one battery of
#: differently-sized grids shares a single pool.
_POOLS: dict[int, Any] = {}

#: Everything a pool can raise for environmental (not cell-code) reasons:
#: missing multiprocessing synchronization primitives at construction,
#: denied fork/clone when workers are lazily spawned at first submit, or
#: workers dying without a Python exception (``BrokenProcessPool``,
#: caught as its light base class — see :func:`ProcessPoolExecutor`).
#: Cell-code exceptions never reach these handlers: _execute_for_pool
#: captures them in the worker and they are re-raised, unchanged, in
#: the parent.
_POOL_FAILURES = (ImportError, NotImplementedError, OSError, BrokenExecutor)


class _CellFailure:
    """A cell's own exception, carried out of the worker as a value.

    Keeps the pool's exception channel unambiguous: anything *raised*
    by ``pool.map`` is an environmental pool failure (fall back to
    serial), anything a cell raised — even an ``OSError`` — comes back
    as data and is re-raised verbatim in the parent.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def _execute_for_pool(spec: RunSpec) -> Any:
    try:
        return execute(spec)
    except Exception as error:  # noqa: BLE001 - re-raised in the parent
        return _CellFailure(error)


#: Seconds the parent waits for one pooled cell's outcome (the slowest
#: cell, E17's n = 10⁵ population, takes well under a minute).
CELL_BUDGET_S = 1800.0


#: How many times a requested pool could not be used and a sweep fell
#: back to the serial path in this process: the ordinal each fallback's
#: warning carries.
_FALLBACKS = 0


def _note_fallback(rerun: int, total: int) -> None:
    global _FALLBACKS
    _FALLBACKS += 1
    # The ordinal keeps the text unique, so the default once-per-location
    # warning filter cannot swallow the second fallback of a battery.
    warnings.warn(
        f"process pool unavailable or broken in this environment; {rerun} "
        f"of {total} cells ran serially (results are identical, only "
        f"slower; fallback #{_FALLBACKS} of this process)",
        RuntimeWarning,
        stacklevel=3,
    )


def _discard_pool(workers: int, terminate: bool = False) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        for process in list(pool._processes.values()) if terminate else ():
            process.terminate()  # a hung cell never returns on its own
            process.join()
        pool.shutdown(wait=False, cancel_futures=True)


@atexit.register
def _discard_pools() -> None:
    """Release the cached pools while the executor's module is still
    whole: it is imported after this one, so interpreter teardown
    clears it first and a pool dying later would trip over it."""
    for workers in list(_POOLS):
        _discard_pool(workers)


def grouped(results: Sequence[Any], size: int) -> list[list[Any]]:
    """Split flat cell results into consecutive per-row groups.

    The experiments lay out repetition grids row-major (all of row 0's
    repetitions, then row 1's, ...); this is the one place the
    stride arithmetic mapping the engine's flat, spec-ordered result
    list back onto grid rows lives.
    """
    if size < 1:
        raise ExperimentError(f"group size must be at least 1, got {size!r}")
    if len(results) % size:
        raise ExperimentError(
            f"{len(results)} results do not divide into groups of {size}"
        )
    return [list(results[i : i + size]) for i in range(0, len(results), size)]


class Runner:
    """Maps specs to outcomes, serially or across a process pool."""

    def __init__(self, workers: int | None = None) -> None:
        self.workers = max(1, workers if workers is not None else default_workers())

    def map(self, specs: Iterable[RunSpec]) -> list[Any]:
        """Execute every spec; outcomes are returned in spec order."""
        spec_list: Sequence[RunSpec] = list(specs)
        if self.workers <= 1 or len(spec_list) <= 1:
            return [execute(spec) for spec in spec_list]
        results: list[Any] = []
        failure: _CellFailure | None = None
        futures: list[Any] = []
        try:
            pool = _POOLS.get(self.workers)
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=self.workers)
                _POOLS[self.workers] = pool
            # One cell per submit keeps heterogeneous cells load-balanced;
            # outcomes are collected in spec order.  Workers spawn
            # lazily, so a pool larger than the spec list wastes nothing.
            # A failing cell fail-fasts like the serial path would.
            futures = [pool.submit(_execute_for_pool, spec) for spec in spec_list]
            for spec, future in zip(spec_list, futures):
                try:
                    result = future.result(timeout=CELL_BUDGET_S)
                except TimeoutError:
                    _discard_pool(self.workers, terminate=True)
                    raise ExperimentError(
                        f"cell {spec.label or spec.kind!r} ran past its "
                        f"{CELL_BUDGET_S:g} s budget; its pool's workers "
                        f"were terminated"
                    ) from None
                if isinstance(result, _CellFailure):
                    failure = result
                    break
                results.append(result)
        except _POOL_FAILURES:
            # No process support here, or the pool broke mid-grid: drop
            # it and let the serial path compute the cells still missing
            # (or surface the same error attributably, in-process).  The
            # collected prefix stands — cells are pure functions of
            # their specs.
            _discard_pool(self.workers)
            rest = spec_list[len(results) :]
            _note_fallback(len(rest), len(spec_list))
            results.extend(execute(spec) for spec in rest)
            return results
        finally:
            for future in futures:
                future.cancel()
        if failure is not None:
            raise failure.error
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Runner(workers={self.workers})"


def run_specs(specs: Iterable[RunSpec], workers: int | None = None) -> list[Any]:
    """Convenience wrapper: ``Runner(workers).map(specs)``."""
    return Runner(workers).map(specs)
