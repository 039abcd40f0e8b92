"""System configuration.

One :class:`SystemConfig` fully determines a simulated universe: the
population size, the delay regime, the protocol, the broadcast entrant
policy and the root RNG seed.  Two systems built from equal configs
produce identical traces — the experiments and the regression tests
lean on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any

from ..core.register import key_names
from ..faults.plan import FaultPlan
from ..net.broadcast import EntrantPolicy
from ..net.delay import DelayModel
from ..protocols import PROTOCOLS
from ..sim.clock import Time
from ..sim.errors import ConfigError


@dataclass
class SystemConfig:
    """Parameters of one simulated dynamic system.

    Parameters
    ----------
    n:
        The constant system size, known to every process (Section 3.1).
    delta:
        The delay bound ``δ``.  Under a synchronous delay model this is
        the bound the protocol may *use*; under other models it merely
        parameterizes the default delay distributions.
    protocol:
        One of ``"sync"``, ``"naive"``, ``"es"``, ``"abd"``.
    delay:
        An explicit :class:`~repro.net.delay.DelayModel`.  ``None``
        selects ``SynchronousDelay(delta)``.
    entrant_policy:
        Whether broadcasts reach processes that enter during the
        delivery window — ``"none"`` (bare guarantee), ``"all"``, or a
        probability (see :mod:`repro.net.broadcast`).
    initial_value:
        The register's initial value held by the seeds (footnote 3).
    seed:
        Root seed for every RNG stream in the run.
    trace:
        Whether to retain the structured trace (disable for big runs).
    trace_capacity:
        Optional cap on retained trace records.
    keys:
        How many registers the system's
        :class:`~repro.core.register.RegisterSpace` serves.  The
        default 1 is the paper's single register and is byte-identical
        to the pre-RegisterSpace library; larger counts create named
        keys ``k0 … k{keys-1}`` that every operation may address.
    key_set:
        Explicit register key names, overriding the ``k0 …`` naming.
        A sharded cluster uses this to hand each shard exactly the
        (globally named) keys it owns; must have ``keys`` entries.
        ``None`` (the default) keeps the historical naming.
    pid_prefix:
        Prefix of generated process identities (``p`` -> ``p0001`` …).
        A cluster gives each shard its own namespace (``s0.p`` …) so
        merged histories never collide.  The default is byte-identical
        to the historical naming.
    sample_period:
        Cadence of the active-set tracker probes.
    faults:
        An optional :class:`~repro.faults.plan.FaultPlan` installed at
        construction.  ``None`` keeps the network's fault gate closed
        (the byte-identical fast path); an empty plan is installed but
        draws no randomness, so it perturbs nothing either.
    mode:
        ``"exact"`` (the default) simulates every process and message;
        ``"mesoscale"`` aggregates the bulk of the population
        analytically (arrival-count trajectories from the delay model's
        closed-form uniform CDF) around a small exact *tracer*
        subpopulation — see :mod:`repro.runtime.mesoscale` for the
        validity envelope.  Mesoscale is a declared approximation:
        E18 cross-checks it against the exact kernel, and mesoscale
        runs are excluded from the determinism-digest gate.
    tracers:
        The exact tracer subpopulation size under ``mode="mesoscale"``
        (the first ``tracers`` seeds, including the designated writer,
        are real protocol nodes whose histories the checkers judge).
    """

    n: int = 20
    delta: Time = 5.0
    protocol: str = "sync"
    delay: DelayModel | None = None
    entrant_policy: EntrantPolicy = "none"
    initial_value: Any = "v0"
    seed: int = 0
    trace: bool = True
    trace_capacity: int | None = None
    keys: int = 1
    key_set: tuple[Any, ...] | None = None
    pid_prefix: str = "p"
    sample_period: Time = 1.0
    faults: FaultPlan | None = None
    mode: str = "exact"
    tracers: int = 16
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"system size must be at least 1, got {self.n!r}")
        if self.keys < 1:
            raise ConfigError(f"key count must be at least 1, got {self.keys!r}")
        if self.key_set is not None:
            self.key_set = tuple(self.key_set)
            if len(self.key_set) != self.keys:
                raise ConfigError(
                    f"key_set has {len(self.key_set)} entries but keys={self.keys}; "
                    f"the explicit key names must match the key count"
                )
            if len(set(self.key_set)) != len(self.key_set):
                raise ConfigError(f"key_set contains duplicates: {self.key_set!r}")
        if not self.pid_prefix:
            raise ConfigError("pid_prefix must be non-empty")
        if not 0 < self.delta < inf:
            raise ConfigError(
                f"delta must be positive and finite, got {self.delta!r}"
            )
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
            )
        if not 0 < self.sample_period < inf:
            raise ConfigError(
                f"sample_period must be positive and finite, "
                f"got {self.sample_period!r}"
            )
        if self.mode not in ("exact", "mesoscale"):
            raise ConfigError(
                f"unknown mode {self.mode!r}; choose 'exact' or 'mesoscale'"
            )
        if self.mode == "mesoscale":
            if self.protocol != "sync":
                raise ConfigError(
                    f"mesoscale mode aggregates the Figures 1-2 synchronous "
                    f"protocol only, got protocol={self.protocol!r}"
                )
            if self.keys != 1 or self.key_set is not None:
                raise ConfigError(
                    "mesoscale mode serves the single classic register"
                )
            if self.entrant_policy != "none":
                raise ConfigError(
                    "mesoscale mode requires entrant_policy='none'"
                )
            if self.faults is not None:
                raise ConfigError(
                    "mesoscale mode is fault-free (the aggregate plane has "
                    "no per-message fault gate)"
                )
            if self.tracers < 2:
                raise ConfigError(
                    f"mesoscale needs at least 2 tracers (writer + reader), "
                    f"got {self.tracers!r}"
                )
            if self.n <= self.tracers:
                raise ConfigError(
                    f"mesoscale needs n > tracers, got n={self.n} "
                    f"tracers={self.tracers}"
                )

    def key_tuple(self) -> tuple[Any, ...]:
        """The register-space key names this config serves.

        ``key_set`` wins when given (a cluster shard's owned keys);
        otherwise the historical naming — the ``None`` sentinel for a
        single register, ``k0 … k{keys-1}`` for a multi-register store.
        """
        if self.key_set is not None:
            return self.key_set
        return key_names(self.keys)
