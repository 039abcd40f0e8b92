"""Deterministic fault injection: plans, the injector, the taxonomy.

The paper argues its protocols correct under churn plus a delay model;
this package probes the *boundary* of those guarantees.  A
:class:`FaultPlan` declares message loss, partitions (drop or defer),
delay spikes and crash-at-phase injections; a :class:`FaultInjector`
applies it inside the network behind a zero-overhead gate (a run with
no plan installed is byte-identical to one built before this package
existed).  :meth:`FaultPlan.classify` tells the explorer whether a
violating run refutes a lemma (in-model ⇒ bug) or merely documents a
hypothesis the plan broke (out-of-model ⇒ expected breakage).
"""

from .injector import (
    REASON_DEPARTED,
    REASON_LOSS,
    REASON_PARTITION,
    FaultInjector,
)
from .plan import (
    LOSS_COVER_THRESHOLD,
    CrashFault,
    DelaySpikeFault,
    Fault,
    FaultPlan,
    LossFault,
    PartitionFault,
    PlanClassification,
)

__all__ = [
    "REASON_DEPARTED",
    "REASON_LOSS",
    "REASON_PARTITION",
    "FaultInjector",
    "LOSS_COVER_THRESHOLD",
    "CrashFault",
    "DelaySpikeFault",
    "Fault",
    "FaultPlan",
    "LossFault",
    "PartitionFault",
    "PlanClassification",
]
