"""Deterministic discrete-event simulation kernel.

The kernel provides the paper's execution substrate: an integer-friendly
virtual clock, a reproducible event scheduler, generator-based protocol
operations with ``Wait``/``WaitUntil`` effects, process lifecycles
(listening → active → departed), a membership registry, named RNG
streams and a structured trace log.
"""

from .clock import START_OF_TIME, Time
from .engine import EventScheduler
from .events import Event, Priority
from .membership import Membership
from .operations import (
    Effect,
    OperationBody,
    OperationHandle,
    OperationState,
    Wait,
    WaitUntil,
)
from .process import ProcessMode, SimProcess
from .rng import RngRegistry, derive_seed
from .trace import TraceKind, TraceLog, TraceRecord

__all__ = [
    "START_OF_TIME",
    "Time",
    "EventScheduler",
    "Event",
    "Priority",
    "Membership",
    "Effect",
    "OperationBody",
    "OperationHandle",
    "OperationState",
    "Wait",
    "WaitUntil",
    "ProcessMode",
    "SimProcess",
    "RngRegistry",
    "derive_seed",
    "TraceKind",
    "TraceLog",
    "TraceRecord",
]
