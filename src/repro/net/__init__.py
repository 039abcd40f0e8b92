"""Network substrate: delay models, channels and broadcast.

Implements the communication assumptions of the paper's three system
classes — synchronous (known bound ``δ``), eventually synchronous
(unknown GST and ``δ``) and fully asynchronous (no bound) — plus an
explicit adversary used by the impossibility experiment.
"""

from .broadcast import BroadcastService, EntrantPolicy
from .delay import (
    AdversarialDelay,
    AdversaryPolicy,
    AsynchronousDelay,
    DelayModel,
    DualBoundSynchronousDelay,
    EventuallySynchronousDelay,
    SynchronousDelay,
)
from .network import Network

__all__ = [
    "BroadcastService",
    "EntrantPolicy",
    "AdversarialDelay",
    "AdversaryPolicy",
    "AsynchronousDelay",
    "DelayModel",
    "DualBoundSynchronousDelay",
    "EventuallySynchronousDelay",
    "SynchronousDelay",
    "Network",
]
