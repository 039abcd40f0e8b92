"""Helpers to build synthetic histories for checker tests.

The checkers consume only operation handles, so tests can fabricate
histories directly, with exact timestamps, without running a simulation.
"""

from __future__ import annotations

from typing import Any

from repro.core.history import History
from repro.core.register import OP_JOIN, OP_READ, OP_WRITE
from repro.sim.operations import OperationHandle


def write(
    history: History,
    value: Any,
    start: float,
    end: float | None,
    pid: str = "writer",
    abandoned: bool = False,
    key: Any = None,
) -> OperationHandle:
    """Record a write [start, end] (end=None: still pending / abandoned)."""
    handle = OperationHandle(OP_WRITE, pid, invoke_time=start, argument=value, key=key)
    if abandoned:
        handle._abandon(time=end if end is not None else start)
    elif end is not None:
        handle._complete("ok", time=end)
    history.record_operation(handle)
    return handle


def read(
    history: History,
    returned: Any,
    start: float,
    end: float | None,
    pid: str = "reader",
    key: Any = None,
) -> OperationHandle:
    """Record a read [start, end] returning ``returned``."""
    handle = OperationHandle(OP_READ, pid, invoke_time=start, key=key)
    if end is not None:
        handle._complete(returned, time=end)
    history.record_operation(handle)
    return handle


def join(
    history: History,
    adopted: Any,
    sequence: int,
    start: float,
    end: float | None,
    pid: str = "joiner",
) -> OperationHandle:
    """Record a join [start, end] adopting ``adopted``."""
    from repro.protocols.common import JoinResult

    handle = OperationHandle(OP_JOIN, pid, invoke_time=start)
    if end is not None:
        handle._complete(JoinResult(adopted, sequence), time=end)
    history.record_operation(handle)
    return handle
