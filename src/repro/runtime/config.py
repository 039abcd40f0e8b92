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
from numbers import Real
from typing import Any

from ..core.register import key_names
from ..faults.plan import FaultPlan
from ..net.broadcast import EntrantPolicy
from ..net.delay import DelayModel
from ..protocols import PROTOCOLS
from ..sim.clock import Time
from ..sim.errors import ConfigError


#: The register's initial value held by every seed (footnote 3).
INITIAL_VALUE = "v0"


def require_count(name: str, value: Any) -> None:
    """Refuse a size that is not an ``int`` — a ``bool`` included — by
    name: ``range`` in the build would refuse a float only later, with
    a bare ``TypeError``, and take ``True`` for 1."""
    if value.__class__ is bool or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int, got {value!r}")


def require_delta(value: Any) -> None:
    """Refuse a delay bound ``δ`` that is not a positive, finite real,
    by name — a ``bool`` included, which would otherwise run as δ = 1."""
    if value.__class__ is bool or not isinstance(value, Real):
        raise ConfigError(
            f"delta must be a real number (a bool is not one), got {value!r}"
        )
    if not 0 < value < inf:
        raise ConfigError(f"delta must be positive and finite, got {value!r}")


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
    seed:
        Root seed for every RNG stream in the run.
    trace:
        Whether to retain the structured trace (disable for big runs).
        A traced run keeps every record.
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
    faults:
        An optional :class:`~repro.faults.plan.FaultPlan` installed at
        construction.  ``None`` keeps the network's fault gate closed
        (the byte-identical fast path); an empty plan is installed but
        draws no randomness, so it perturbs nothing either.
    """

    n: int = 20
    delta: Time = 5.0
    protocol: str = "sync"
    delay: DelayModel | None = None
    entrant_policy: EntrantPolicy = "none"
    seed: int = 0
    trace: bool = True
    keys: int = 1
    key_set: tuple[Any, ...] | None = None
    pid_prefix: str = "p"
    faults: FaultPlan | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_count("n", self.n)
        require_count("keys", self.keys)
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
        require_delta(self.delta)
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOLS)}"
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
