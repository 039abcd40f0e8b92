"""System assembly: the wiring shared by standalone and clustered runs.

:class:`~repro.runtime.system.DynamicSystem` historically built its
whole substrate — scheduler, RNG registry, trace, membership, delay
model, network, broadcast — inline in its constructor.  A sharded
cluster needs the *same* wiring per shard, except that every shard
shares one :class:`~repro.sim.engine.EventScheduler` (one clock, one
event queue — shard interleaving is deterministic because it is plain
event ordering) while owning private everything-else.  This module is
that extraction:

* :func:`build_substrate` assembles one system's kernel + network
  stack, optionally on a caller-provided engine;
* :func:`derive_shard_seed` / :func:`shard_pid_prefix` /
  :func:`split_population` are the cluster's per-shard derivations —
  kept here (not in :mod:`repro.cluster`) because they define the
  namespace contract (`s{i}.p0001` pids, `shard{i}` seed labels) that
  the runtime's config layer validates against.

``build_substrate`` with no engine argument is byte-identical to the
historical inline wiring — the determinism digests pin this.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.broadcast import BroadcastService
from ..net.delay import DelayModel, SynchronousDelay
from ..net.network import Network
from ..sim.engine import EventScheduler
from ..sim.errors import ConfigError
from ..sim.membership import Membership
from ..sim.rng import RngRegistry, derive_seed
from ..sim.trace import TraceLog
from .config import SystemConfig


@dataclass
class Substrate:
    """One system's fully wired simulation stack.

    ``owns_engine`` records whether the engine was created for this
    substrate (standalone system) or injected by a cluster — only the
    owner may drive the clock via ``run_until``-style calls.
    """

    engine: EventScheduler
    owns_engine: bool
    rng: RngRegistry
    trace: TraceLog
    membership: Membership
    delay_model: DelayModel
    network: Network
    broadcast: BroadcastService


def build_substrate(
    config: SystemConfig, engine: EventScheduler | None = None
) -> Substrate:
    """Assemble the kernel + network substrate one config describes.

    ``engine`` injects a shared scheduler (the cluster case: every
    shard rides one clock); ``None`` creates a private one, exactly as
    the historical ``DynamicSystem`` constructor did.
    """
    owns_engine = engine is None
    if engine is None:
        engine = make_scheduler(config.delta)
    rng = RngRegistry(config.seed)
    trace = TraceLog(enabled=config.trace)
    membership = Membership()
    delay_model = (
        config.delay if config.delay is not None else SynchronousDelay(config.delta)
    )
    network = Network(engine, membership, delay_model, trace, rng)
    broadcast = BroadcastService(
        engine,
        membership,
        network,
        delay_model,
        trace,
        rng,
        window=config.delta,
        entrant_policy=config.entrant_policy,
    )
    return Substrate(
        engine=engine,
        owns_engine=owns_engine,
        rng=rng,
        trace=trace,
        membership=membership,
        delay_model=delay_model,
        network=network,
        broadcast=broadcast,
    )


def make_scheduler(delta: float) -> EventScheduler:
    """The event scheduler for a system (or cluster) with delay bound δ.

    The bucket width is keyed to the simulation's natural tick —
    ``δ/25``, comfortably under the default delay model's minimum
    message delay, so in-flight arrivals land in future buckets (small
    sorted chunks) and the overflow heap stays near empty: what a
    handler schedules into the active epoch (a zero-delay timer) is
    all it holds.  Width only affects speed (and ``net/network.py``'s
    vector floor, 360 recipients here); ordering is exact at any width.
    Against ``δ/40`` (6 interleaved ``perf/`` pairs, seed 0) ``drive_s``
    went 0.969× on ``sync_churn_1k``, 0.959× on ``sync_scale_100k``
    and 1.029× on the cluster: noise, so ``δ/25`` stays.
    """
    return EventScheduler(bucket_width=delta / 25.0)


# ----------------------------------------------------------------------
# Per-shard derivations (the cluster namespace contract)
# ----------------------------------------------------------------------


def derive_shard_seed(root_seed: int, index: int) -> int:
    """Shard ``index``'s root seed: ``derive_seed(root, "shard{i}")``.

    Every RNG stream inside a shard derives from this, so shards are
    stochastically independent and a cluster run is reproducible from
    its one cluster seed.
    """
    return derive_seed(root_seed, f"shard{index}")


def shard_pid_prefix(index: int) -> str:
    """Shard ``index``'s pid namespace (``s{i}.p`` -> ``s1.p0001`` …).

    Distinct per shard so merged cluster histories never collide, and
    recognizable (the ``.`` separator) so fault plans written against
    bare ``p0001``-style names can be scoped into a shard's namespace.
    """
    return f"s{index}.p"


def scope_pid(pid: str, index: int) -> str:
    """Map a bare process identity into shard ``index``'s namespace.

    ``p0001`` becomes ``s{index}.p0001``; identities already carrying a
    namespace (a ``.``) pass through unchanged.  The single place the
    dot-heuristic lives — fault scoping in the cluster runtime and the
    explorer both route through it, so they can never diverge from the
    namespace :func:`shard_pid_prefix` gives actual processes.
    """
    return pid if "." in pid else f"s{index}.{pid}"


def split_population(total: int, shards: int) -> tuple[int, ...]:
    """Partition ``total`` processes over ``shards`` quorum groups.

    Deterministic floor-plus-remainder split (earlier shards take the
    remainder), every shard at least 1 — the fixed-total-population
    contract E14's scaling measurements rely on.
    """
    if shards < 1:
        raise ConfigError(f"need at least one shard, got {shards!r}")
    if total < shards:
        raise ConfigError(
            f"cannot split {total} processes over {shards} shards; "
            f"every shard needs at least one seed process"
        )
    base, remainder = divmod(total, shards)
    return tuple(base + (1 if i < remainder else 0) for i in range(shards))
