"""Cluster configuration: S independent quorum shards, one key space.

A :class:`ClusterConfig` describes a sharded deployment of the keyed
register store: ``keys`` globally named registers partitioned over
``shards`` independent quorum groups by static seeded hashing, with a
*total* population of ``n`` processes split across the shards.  Each
shard is a complete :class:`~repro.runtime.system.DynamicSystem` — its
own churn controller, network, broadcast service and protocol nodes,
the paper's machinery unchanged — so quorum size and join traffic
scale with ``n / shards``, not with ``n``.

The config is pure data: :meth:`shard_config` derives shard ``i``'s
:class:`~repro.runtime.config.SystemConfig` (population slice, owned
key set, ``s{i}.p`` pid namespace, ``derive_seed(root, "shard{i}")``
seed), so a cluster run is fully determined by one cluster seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.register import key_names
from ..net.delay import DELAY_MODEL_NAMES, make_delay
from ..protocols import PROTOCOLS
from ..runtime.assembly import derive_shard_seed, shard_pid_prefix, split_population
from ..runtime.config import SystemConfig, require_count, require_delta
from ..sim.clock import Time
from ..sim.errors import ConfigError
from ..sim.rng import derive_seed


@dataclass
class ClusterConfig:
    """Parameters of one sharded cluster.

    Parameters
    ----------
    shards:
        How many independent quorum groups the key space is partitioned
        over.  ``1`` serves every key from a single population — the
        keyed store of PR 4, wrapped.
    keys:
        The size of the *global* key space (``k0 … k{keys-1}``; a
        1-key cluster keeps the classic ``None`` single-register key).
        Keys may be fewer than shards: shards owning no key still churn
        and gossip, they just serve no operations.
    n:
        The **total** population, split across shards
        (floor-plus-remainder, every shard at least one seed process).
        Holding ``n`` fixed while growing ``shards`` is the E14
        scaling experiment.
    delay:
        A delay-model *name* (see :data:`repro.net.delay.DELAY_MODEL_NAMES`);
        each shard instantiates its own model.  ``None`` selects the
        synchronous bound ``delta``.
    trace:
        Per-shard structured traces.  Default off — clusters exist to
        be scaled, and the flight recorder is observation only.

    ``delta``, ``protocol`` and ``seed`` mean exactly what they mean
    on :class:`~repro.runtime.config.SystemConfig`, applied per shard;
    every shard keeps that config's default entrant policy.
    """

    shards: int = 2
    keys: int = 8
    n: int = 20
    delta: Time = 5.0
    protocol: str = "sync"
    delay: str | None = None
    seed: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        require_count("shards", self.shards)
        require_count("keys", self.keys)
        require_count("n", self.n)
        require_delta(self.delta)
        if self.shards < 1:
            raise ConfigError(f"shard count must be at least 1, got {self.shards!r}")
        if self.keys < 1:
            raise ConfigError(f"key count must be at least 1, got {self.keys!r}")
        if self.n < self.shards:
            raise ConfigError(
                f"total population {self.n} cannot seed {self.shards} shards; "
                f"every shard needs at least one process"
            )
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        if self.delay is not None and self.delay not in DELAY_MODEL_NAMES:
            raise ConfigError(
                f"unknown delay model {self.delay!r}; "
                f"choose from {DELAY_MODEL_NAMES}"
            )

    # ------------------------------------------------------------------
    # Key routing (static seeded hash partitioning)
    # ------------------------------------------------------------------

    def key_tuple(self) -> tuple[Any, ...]:
        """The global key space (``(None,)`` for a 1-key cluster)."""
        return key_names(self.keys)

    def shard_of(self, key: Any) -> int:
        """The shard owning ``key``: a static, seeded hash partition.

        Stable across processes and Python versions (SHA-256 via
        :func:`~repro.sim.rng.derive_seed`, never the salted built-in
        ``hash``), and a pure function of ``(seed, key, shards)`` — the
        routing table needs no state and every client derives the same
        one.
        """
        return derive_seed(self.seed, f"cluster.keymap:{key}") % self.shards

    def keys_by_shard(self) -> tuple[tuple[Any, ...], ...]:
        """Each shard's owned keys, in global key order (may be empty)."""
        owned: list[list[Any]] = [[] for _ in range(self.shards)]
        for key in self.key_tuple():
            owned[self.shard_of(key)].append(key)
        return tuple(tuple(keys) for keys in owned)

    # ------------------------------------------------------------------
    # Per-shard derivation
    # ------------------------------------------------------------------

    def shard_sizes(self) -> tuple[int, ...]:
        """Population slice per shard (sums to ``n``)."""
        return split_population(self.n, self.shards)

    def shard_config(self, index: int) -> SystemConfig:
        """Shard ``index``'s fully derived :class:`SystemConfig`.

        A shard owning no key still gets a (private, unaddressed)
        single register so the protocol machinery is unchanged.
        """
        if not 0 <= index < self.shards:
            raise ConfigError(
                f"shard index {index} out of range [0, {self.shards})"
            )
        owned = self.keys_by_shard()[index]
        return SystemConfig(
            n=self.shard_sizes()[index],
            delta=self.delta,
            protocol=self.protocol,
            delay=make_delay(self.delay, self.delta) if self.delay is not None else None,
            seed=derive_shard_seed(self.seed, index),
            trace=self.trace,
            keys=len(owned) if owned else 1,
            key_set=owned if owned else None,
            pid_prefix=shard_pid_prefix(index),
        )
