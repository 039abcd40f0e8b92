"""The six judged-run workloads.

Each :class:`Workload` names the public calls of one judged run —
build, attach churn, plan, install — so :mod:`judged` can time a span
around every one of them.  Nothing here imports :mod:`repro` at module
level: the child process times ``import repro`` itself, and the smoke
test reads the names without paying for the import.

Every system is built on the default :class:`SystemConfig` knobs
(``queue="heap"``, batched delivery and dispatch, ``mode="exact"``)
with ``trace=False``; δ = 5 throughout.  ``--scale`` multiplies the
horizon only: n, protocol and operation mix never change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

DELTA = 5.0

#: Everything a workload touches beyond ``import repro`` itself, so the
#: import span — not the build span — pays for loading it.
IMPORTS = (
    "repro",
    "repro.churn.model",
    "repro.cluster.config",
    "repro.cluster.history",
    "repro.cluster.rebalance",
    "repro.cluster.system",
    "repro.core.history",
    "repro.faults.plan",
    "repro.net.delay",
    "repro.workloads.cluster",
    "repro.workloads.generators",
    "repro.workloads.schedule",
)


@dataclass(frozen=True)
class Workload:
    """One judged run: how to build it and how it is judged."""

    name: str
    why: str
    horizon: float
    build: Callable[[int, float], Any]
    attach_churn: Callable[[Any], None] | None
    plan: Callable[[Any, float], list]
    install: Callable[[Any, list, float], tuple[Any, Any]]
    #: Atomicity is promised: an inversion is a failed operation.
    atomic: bool = False
    #: Run (and time) the atomicity checker even where it is not promised.
    check_atomicity: bool = False
    #: Liveness grace in units of δ (quorum protocols may legitimately
    #: still be collecting at the horizon).
    grace_deltas: float = 3.0
    cluster: bool = False


def _system(seed: int, **config: Any) -> Any:
    from repro import DynamicSystem, SystemConfig

    return DynamicSystem(
        SystemConfig(delta=DELTA, seed=seed, trace=False, **config)
    )


def _install(system: Any, plan: list, horizon: float) -> tuple[Any, Any]:
    """Returns ``(driver, rebalancer)``; only the cluster has the latter."""
    from repro.workloads.schedule import WorkloadDriver

    driver = WorkloadDriver(system)
    driver.install(plan)
    return driver, None


def _read_heavy(
    read_rate: float, write_period: float, margin: float
) -> Callable[[Any, float], list]:
    """A read-heavy plan whose last operation is invoked ``margin``
    before the horizon, so every planned operation can terminate."""

    def plan(system: Any, horizon: float) -> list:
        from repro.workloads.generators import read_heavy_plan

        return read_heavy_plan(
            start=1.0,
            end=max(2.0, horizon - margin),
            write_period=write_period,
            read_rate=read_rate,
            rng=system.rng.stream("perf.plan"),
        )

    return plan


# -- sync_churn_1k ------------------------------------------------------


def _churn_1k_build(seed: int, horizon: float) -> Any:
    return _system(seed, n=1000, protocol="sync")


def _churn_1k_attach(system: Any) -> None:
    from repro.churn.model import sharded_synchronous_churn_bound

    system.attach_churn(
        rate=0.3 * sharded_synchronous_churn_bound(DELTA, 1000),
        victim_policy="oldest_first",
    )


# -- sync_scale_100k ----------------------------------------------------


def _scale_100k_build(seed: int, horizon: float) -> Any:
    return _system(seed, n=100_000, protocol="sync")


def _scale_100k_attach(system: Any) -> None:
    system.attach_churn(rate=1.0 / 100_000)


def _scale_100k_plan(system: Any, horizon: float) -> list:
    """One write and two reads.  The write is broadcast before the first
    joiner enters: a write that reached a joiner inside its first δ
    would spare it the inquiry, and whether it does is a race between
    two random delays — 2e5 messages of work decided by the seed."""
    from repro.workloads.schedule import ReadOp, WriteOp

    return [
        ReadOp(time=0.02 * horizon),
        WriteOp(time=0.05 * horizon),
        ReadOp(time=0.9 * horizon),
    ]


# -- es_faulted_200 -----------------------------------------------------

_ES_GST = 6.0 * DELTA


def _es_faulted_build(seed: int, horizon: float) -> Any:
    from repro.faults.plan import (
        DelaySpikeFault,
        FaultPlan,
        LossFault,
        PartitionFault,
    )
    from repro.net.delay import EventuallySynchronousDelay

    n = 200
    third = frozenset(f"p{i:04d}" for i in range(1, n // 3 + 1))
    cut = 0.3 * horizon
    faults = FaultPlan.of(
        LossFault(probability=0.05, payload_types={"EsReply", "EsAck"}),
        PartitionFault(
            start=cut, end=cut + 0.8 * DELTA, group_a=third, mode="defer"
        ),
        DelaySpikeFault(start=0.5 * _ES_GST, end=_ES_GST, factor=4.0),
        name="perf-es-faulted",
    )
    return _system(
        seed,
        n=n,
        protocol="es",
        delay=EventuallySynchronousDelay(gst=_ES_GST, delta=DELTA),
        faults=faults,
    )


def _es_faulted_attach(system: Any) -> None:
    system.attach_churn(rate=0.005, min_stay=3.0 * DELTA)


# -- abd_static_200 -----------------------------------------------------


def _abd_static_build(seed: int, horizon: float) -> Any:
    return _system(seed, n=200, protocol="abd")


def _abd_static_plan(system: Any, horizon: float) -> list:
    from repro.workloads.generators import write_heavy_plan

    return write_heavy_plan(
        start=1.0,
        end=max(2.0, horizon - 4.0 * DELTA),
        write_period=2.0 * DELTA,
        reads_per_write=1,
        rng=system.rng.stream("perf.plan"),
    )


# -- history_check_200k -------------------------------------------------


def _history_check_build(seed: int, horizon: float) -> Any:
    return _system(seed, n=50, protocol="sync")


def _history_check_attach(system: Any) -> None:
    system.attach_churn(rate=0.02)


# -- cluster_rebalance_4x100 --------------------------------------------


def _cluster_build(seed: int, horizon: float) -> Any:
    from repro.cluster.config import ClusterConfig
    from repro.cluster.system import ClusterSystem

    return ClusterSystem(
        ClusterConfig(
            shards=4, keys=16, n=400, delta=DELTA, protocol="sync", seed=seed
        )
    )


def _cluster_attach(cluster: Any) -> None:
    cluster.attach_churn(rate=0.01, min_stay=3.0 * DELTA)


def _cluster_plan(cluster: Any, horizon: float) -> list:
    from repro.workloads.cluster import shard_skewed_key_picker
    from repro.workloads.generators import assign_keys

    plan = _read_heavy(4.0, 6.0, 4.0 * DELTA)(cluster, horizon)
    picker = shard_skewed_key_picker(
        cluster, cluster.rng.stream("perf.keys"), distribution="zipf"
    )
    return assign_keys(plan, picker)


def _cluster_install(
    cluster: Any, plan: list, horizon: float
) -> tuple[Any, Any]:
    """Dynamic driver plus the rebalancer that reads its load signal.

    Planning stops 18δ before the horizon — the handoff timeout ladder
    at one retry — so every planned handoff resolves in-run.
    """
    from repro.cluster.rebalance import RebalancePolicy, Rebalancer
    from repro.workloads.cluster import ClusterWorkloadDriver

    driver = ClusterWorkloadDriver(cluster, dynamic=True)
    rebalancer = Rebalancer(
        cluster,
        driver=driver,
        policy=RebalancePolicy(
            period=3.0 * DELTA,
            threshold=1.2,
            budget=2,
            max_retries=1,
            plan_until=horizon - 18.0 * DELTA,
        ),
    )
    driver.install(plan)
    return driver, rebalancer


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="sync_churn_1k",
        why=(
            "The paper's core scenario: every join fans an inquiry to n=1000 "
            "processes and collects replies; protocols, net and sim share the time."
        ),
        horizon=30.0,
        build=_churn_1k_build,
        attach_churn=_churn_1k_attach,
        plan=_read_heavy(20.0, 2.0 * DELTA, 3.0 * DELTA),
        install=_install,
    ),
    Workload(
        name="sync_scale_100k",
        why=(
            "Deep slab queue and large-n build: the only workload where build "
            "time, peak RSS and the churn layer are visible."
        ),
        horizon=9.0,
        build=_scale_100k_build,
        attach_churn=_scale_100k_attach,
        plan=_scale_100k_plan,
        install=_install,
    ),
    Workload(
        name="es_faulted_200",
        why=(
            "Point-to-point quorum replies instead of broadcast slabs, and the "
            "only workload with the fault gate open; in-model, so regular and live."
        ),
        horizon=200.0,
        build=_es_faulted_build,
        attach_churn=_es_faulted_attach,
        plan=_read_heavy(2.0, 20.0, 12.0 * DELTA),
        install=_install,
        grace_deltas=12.0,
    ),
    Workload(
        name="abd_static_200",
        why=(
            "Static baseline, half the operations writes: churn and faults do "
            "nothing, so a join- or gate-side optimisation predicts no change."
        ),
        horizon=3000.0,
        build=_abd_static_build,
        attach_churn=None,
        plan=_abd_static_plan,
        install=_install,
        atomic=True,
        check_atomicity=True,
        grace_deltas=4.0,
    ),
    Workload(
        name="history_check_200k",
        why=(
            "Local reads bypass the network: one timer event per read, then "
            "regularity, atomicity and liveness over ~2e5 operations."
        ),
        horizon=400.0,
        build=_history_check_build,
        attach_churn=_history_check_attach,
        plan=_read_heavy(200.0, 2.0 * DELTA, 3.0 * DELTA),
        install=_install,
        check_atomicity=True,
    ),
    Workload(
        name="cluster_rebalance_4x100",
        why=(
            "The same kernel through the cluster: keyed multiplexing, shared "
            "engine, live rebalancer handoffs, merged-history checking."
        ),
        horizon=600.0,
        build=_cluster_build,
        attach_churn=_cluster_attach,
        plan=_cluster_plan,
        install=_cluster_install,
        cluster=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
