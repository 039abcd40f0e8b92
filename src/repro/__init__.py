"""repro — a reproduction of Baldoni, Bonomi, Kermarrec & Raynal,
*Implementing a Register in a Dynamic Distributed System* (ICDCS 2009 /
IRISA PI 1913).

The library provides:

* a deterministic discrete-event simulator of dynamic (churn-prone)
  message-passing systems (:mod:`repro.sim`, :mod:`repro.net`,
  :mod:`repro.churn`);
* the paper's two regular-register protocols — synchronous
  (Figures 1–2) and eventually synchronous (Figures 4–6) — plus the
  broken no-wait variant of Figure 3(a) and a static ABD baseline
  (:mod:`repro.protocols`);
* history-based correctness checkers for regularity, atomicity
  (new/old inversions) and liveness (:mod:`repro.core`);
* workload generators, an experiment harness and one experiment per
  figure/lemma/theorem (:mod:`repro.workloads`, :mod:`repro.experiments`).

Quickstart::

    from repro import DynamicSystem, SystemConfig

    system = DynamicSystem(SystemConfig(n=20, delta=5.0, protocol="sync"))
    system.attach_churn(rate=0.02)
    system.write("hello")
    system.run_for(10)
    reader = system.active_pids()[3]
    handle = system.read(reader)
    system.run_for(1)
    print(handle.result)            # "hello"
    print(system.check_safety().summary())
"""

from ._lazy import lazy_names
from .churn import (
    ActiveSetTracker,
    ChurnController,
    ConstantChurn,
    eventually_synchronous_churn_bound,
    lemma2_window_lower_bound,
    synchronous_churn_bound,
)
from .core import (
    BOTTOM,
    AtomicityReport,
    History,
    Inversion,
    LivenessChecker,
    LivenessReport,
    RegisterNode,
    RegularityChecker,
    SafetyReport,
    find_new_old_inversions,
)
from .faults import (
    CrashFault,
    DelaySpikeFault,
    FaultInjector,
    FaultPlan,
    LossFault,
    PartitionFault,
)
from .net import (
    AdversarialDelay,
    AsynchronousDelay,
    DelayModel,
    DualBoundSynchronousDelay,
    EventuallySynchronousDelay,
    SynchronousDelay,
)
from .protocols import (
    PROTOCOLS,
    AbdRegisterNode,
    EventuallySyncRegisterNode,
    JoinResult,
    NaiveSyncRegisterNode,
    SynchronousRegisterNode,
)
from .runtime import DynamicSystem, SystemConfig
from .sim import EventScheduler, OperationHandle, RngRegistry, TraceLog

__version__ = "1.0.0"

#: The renderers resolve on first use: a run that draws nothing does
#: not import :mod:`repro.viz`.
__getattr__, __dir__ = lazy_names(
    __name__, {"render_message_flow": "viz", "render_timeline": "viz"}
)

__all__ = [
    "ActiveSetTracker",
    "ChurnController",
    "ConstantChurn",
    "eventually_synchronous_churn_bound",
    "lemma2_window_lower_bound",
    "synchronous_churn_bound",
    "BOTTOM",
    "AtomicityReport",
    "History",
    "Inversion",
    "LivenessChecker",
    "LivenessReport",
    "RegisterNode",
    "RegularityChecker",
    "SafetyReport",
    "find_new_old_inversions",
    "CrashFault",
    "DelaySpikeFault",
    "FaultInjector",
    "FaultPlan",
    "LossFault",
    "PartitionFault",
    "AdversarialDelay",
    "AsynchronousDelay",
    "DelayModel",
    "DualBoundSynchronousDelay",
    "EventuallySynchronousDelay",
    "SynchronousDelay",
    "PROTOCOLS",
    "AbdRegisterNode",
    "EventuallySyncRegisterNode",
    "JoinResult",
    "NaiveSyncRegisterNode",
    "SynchronousRegisterNode",
    "DynamicSystem",
    "SystemConfig",
    "EventScheduler",
    "OperationHandle",
    "RngRegistry",
    "TraceLog",
    "render_message_flow",
    "render_timeline",
    "__version__",
]
