"""Composable, serializable fault plans.

A :class:`FaultPlan` is a declarative description of everything an
adversarial environment may do to a run beyond the paper's baseline
model: lose messages, partition the system, inflate link delays, crash
processes at targeted protocol phases.  Plans are *data* — frozen,
hashable, JSON-round-trippable — so the explorer can sweep them,
shrink them and store the interesting ones in a regression corpus.

The paper's model (Section 2/3) assumes reliable channels and, per
system class, a delay discipline.  Not every fault leaves that model:

* a **defer-mode partition** shorter than the synchronous bound ``δ``
  merely schedules legal delays (every crossing message still lands
  within ``δ`` of its send) — the run stays *in-model*, and a safety
  violation under it is a genuine bug;
* a **drop-mode partition**, or one longer than ``δ``, breaks the
  timely-delivery hypothesis — violations under it *document* the
  paper's assumptions rather than refute its lemmas;
* **message loss** below a small cover threshold is treated as
  in-model-adjacent (the dissemination still covers the system with
  overwhelming probability); heavy loss is out-of-model;
* **delay spikes** are out-of-model whenever the delay model exposes a
  known bound the spike can exceed, in-model otherwise (pre-GST /
  asynchronous delays are already arbitrary);
* **crashes** are ordinary departures (Section 2.1 equates leave and
  crash), hence always in-model.

:meth:`FaultPlan.classify` encodes exactly this taxonomy; the explorer
uses it to split violations into ``bug`` and ``expected-breakage``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from math import isfinite, isnan
from typing import Any, Callable, Iterator

from ..sim.clock import Time
from ..sim.errors import ConfigError

#: Loss probability at or below which a plan still counts as in-model:
#: with ≥ 10 processes holding the fresh value, the chance that *every*
#: copy of a dissemination is lost is below ``0.1**10`` per broadcast.
LOSS_COVER_THRESHOLD = 0.1


def _freeze_types(payload_types: Any) -> frozenset[str] | None:
    if payload_types is None:
        return None
    frozen = frozenset(str(t) for t in payload_types)
    if not frozen:
        raise ConfigError("payload_types must be None or non-empty")
    return frozen


def _check_window(what: str, start: Time, end: Time | None) -> None:
    """A loss / spike window: finite ``start``; ``end`` is ``None``
    (forever), or exceeds ``start`` and is not NaN.  An infinite ``end``
    is the same "forever" and stays legal."""
    if not isfinite(start):
        raise ConfigError(f"{what} window start must be finite, got {start!r}")
    if end is not None and (isnan(end) or end <= start):
        raise ConfigError(
            f"{what} window end {end!r} must exceed start {start!r}"
        )


def _reject_unknown_keys(
    what: str, payload: dict[str, Any], known: tuple[str, ...]
) -> None:
    """A plan file with a misspelt key must not load as a smaller plan."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must be a JSON object, got {payload!r}")
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ConfigError(
            f"{what} has unknown key(s) {unknown}; expected {sorted(known)}"
        )


def _link_matches(fault: Any, sender: str, dest: str, payload_type: str, now: Time) -> bool:
    """The shared windowed-link filter of loss and spike faults:
    ``now`` in ``[start, end)`` plus optional payload-type / sender /
    destination restrictions."""
    if now < fault.start or (fault.end is not None and now >= fault.end):
        return False
    if fault.payload_types is not None and payload_type not in fault.payload_types:
        return False
    return _on_link(fault, sender, dest)


def _on_link(fault: Any, sender: str, dest: str) -> bool:
    """The sender / destination half of :func:`_link_matches` (the
    injector's window index answers the time and type halves)."""
    return (fault.sender is None or fault.sender == sender) and (
        fault.dest is None or fault.dest == dest
    )


@dataclass(frozen=True)
class LossFault:
    """Probabilistic message loss on matching sends.

    Matches messages whose send instant falls in ``[start, end)`` (an
    ``end`` of ``None`` means forever) and whose payload type / sender /
    destination pass the optional filters.  Each matching message is
    dropped independently with ``probability``.
    """

    probability: float
    start: Time = 0.0
    end: Time | None = None
    payload_types: frozenset[str] | None = None
    sender: str | None = None
    dest: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigError(
                f"loss probability must be in (0, 1], got {self.probability!r}"
            )
        _check_window("loss", self.start, self.end)
        object.__setattr__(self, "payload_types", _freeze_types(self.payload_types))

    def matches(self, sender: str, dest: str, payload_type: str, now: Time) -> bool:
        return _link_matches(self, sender, dest, payload_type, now)


@dataclass(frozen=True)
class PartitionFault:
    """A scheduled bidirectional partition between two process groups.

    Active on ``[start, end)``; it heals at ``end``.  ``group_a`` is one
    side; ``group_b`` of ``None`` means "everyone else".  Two modes:

    * ``"drop"`` — messages crossing the cut while the partition is
      active (at their send *or* delivery instant) are lost;
    * ``"defer"`` — messages sent across the cut while active are held
      and delivered at the heal instant (never earlier than their
      natural arrival).  A defer partition no longer than ``δ`` keeps
      every delay within the synchronous bound.
    """

    start: Time
    end: Time
    group_a: frozenset[str]
    group_b: frozenset[str] | None = None
    mode: str = "drop"

    def __post_init__(self) -> None:
        # A partition heals at a real instant: a defer partition
        # schedules deliveries *at* ``end``, so it must be finite.
        if not (isfinite(self.start) and isfinite(self.end)):
            raise ConfigError(
                f"partition bounds must be finite, got "
                f"[{self.start!r}, {self.end!r})"
            )
        if self.end <= self.start:
            raise ConfigError(
                f"partition end {self.end!r} must exceed start {self.start!r}"
            )
        if self.mode not in ("drop", "defer"):
            raise ConfigError(f"partition mode must be 'drop' or 'defer', got {self.mode!r}")
        object.__setattr__(self, "group_a", frozenset(self.group_a))
        if not self.group_a:
            raise ConfigError("partition group_a must be non-empty")
        if self.group_b is not None:
            object.__setattr__(self, "group_b", frozenset(self.group_b))
            if not self.group_b:
                raise ConfigError(
                    "partition group_b must be non-empty (omit it for "
                    "'everyone else')"
                )
            if self.group_a & self.group_b:
                raise ConfigError("partition groups must be disjoint")

    @property
    def duration(self) -> Time:
        return self.end - self.start

    def active_at(self, instant: Time) -> bool:
        return self.start <= instant < self.end

    def severs(self, sender: str, dest: str, instant: Time) -> bool:
        """Does this partition cut the ``sender -> dest`` link at ``instant``?"""
        return self.active_at(instant) and self._cuts(sender, dest)

    def _cuts(self, sender: str, dest: str) -> bool:
        """The link half of :meth:`severs`: does ``sender -> dest``
        cross the cut?  (The injector's window index has already
        answered the time half.)"""
        in_a, out_a = sender in self.group_a, dest in self.group_a
        if self.group_b is None:
            return in_a != out_a
        in_b, out_b = sender in self.group_b, dest in self.group_b
        return (in_a and out_b) or (in_b and out_a)


@dataclass(frozen=True)
class DelaySpikeFault:
    """A windowed latency inflation on matching links.

    During ``[start, end)`` every matching message's latency becomes
    ``latency * factor + extra``.  Layers on top of whatever
    :class:`~repro.net.delay.DelayModel` produced the base latency.
    """

    start: Time = 0.0
    end: Time | None = None
    factor: float = 1.0
    extra: Time = 0.0
    sender: str | None = None
    dest: str | None = None
    payload_types: frozenset[str] | None = None

    def __post_init__(self) -> None:
        # Finite, or a spiked delivery lands at a NaN / infinite instant
        # that only the scheduler refuses, three layers down.
        if not (isfinite(self.factor) and self.factor > 0):
            raise ConfigError(
                f"spike factor must be positive and finite, got {self.factor!r}"
            )
        if not (isfinite(self.extra) and self.extra >= 0):
            raise ConfigError(
                f"spike extra must be non-negative and finite, got {self.extra!r}"
            )
        if self.factor == 1.0 and self.extra == 0.0:
            raise ConfigError("spike must change the delay (factor != 1 or extra > 0)")
        _check_window("spike", self.start, self.end)
        object.__setattr__(self, "payload_types", _freeze_types(self.payload_types))

    def matches(self, sender: str, dest: str, payload_type: str, now: Time) -> bool:
        return _link_matches(self, sender, dest, payload_type, now)

    def apply(self, latency: Time) -> Time:
        return latency * self.factor + self.extra


@dataclass(frozen=True)
class CrashFault:
    """Crash a process at a targeted protocol phase.

    Fires when the ``occurrence``-th message whose payload type equals
    ``phase`` is about to be delivered; the ``victim`` role selects the
    message's destination or sender, optionally pinned to an explicit
    ``pid``.  A crash is a silent departure, exactly like a churn
    leave (Section 2.1: leave and crash are one event).
    """

    phase: str
    victim: str = "dest"
    occurrence: int = 1
    pid: str | None = None

    def __post_init__(self) -> None:
        if self.victim not in ("dest", "sender"):
            raise ConfigError(f"crash victim must be 'dest' or 'sender', got {self.victim!r}")
        if self.occurrence < 1:
            raise ConfigError(f"crash occurrence must be >= 1, got {self.occurrence!r}")

    def matches(self, sender: str, dest: str, payload_type: str) -> bool:
        if payload_type != self.phase:
            return False
        if self.pid is not None:
            return (dest if self.victim == "dest" else sender) == self.pid
        return True


Fault = LossFault | PartitionFault | DelaySpikeFault | CrashFault

_FAULT_KINDS: dict[str, type] = {
    "loss": LossFault,
    "partition": PartitionFault,
    "spike": DelaySpikeFault,
    "crash": CrashFault,
}


@dataclass(frozen=True)
class PlanClassification:
    """Verdict on whether a plan stays within the paper's model."""

    in_model: bool
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, composable bundle of faults.

    Plans are applied by the :class:`~repro.faults.injector.FaultInjector`
    at the network's transmit and delivery gates; an empty plan draws
    no randomness and perturbs nothing, so installing it leaves a run
    byte-identical to an un-faulted one.
    """

    losses: tuple[LossFault, ...] = ()
    partitions: tuple[PartitionFault, ...] = ()
    spikes: tuple[DelaySpikeFault, ...] = ()
    crashes: tuple[CrashFault, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "losses", tuple(self.losses))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "spikes", tuple(self.spikes))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not (self.losses or self.partitions or self.spikes or self.crashes)

    def atomic_faults(self) -> tuple[Fault, ...]:
        """Every fault in the plan, in a stable order (for shrinking)."""
        return (*self.losses, *self.partitions, *self.spikes, *self.crashes)

    def __len__(self) -> int:
        return len(self.atomic_faults())

    @classmethod
    def of(cls, *faults: Fault, name: str = "") -> "FaultPlan":
        """Build a plan from loose faults (order within each kind kept)."""
        losses, partitions, spikes, crashes = [], [], [], []
        for fault in faults:
            if isinstance(fault, LossFault):
                losses.append(fault)
            elif isinstance(fault, PartitionFault):
                partitions.append(fault)
            elif isinstance(fault, DelaySpikeFault):
                spikes.append(fault)
            elif isinstance(fault, CrashFault):
                crashes.append(fault)
            else:
                raise ConfigError(f"unknown fault {fault!r}")
        return cls(
            losses=tuple(losses),
            partitions=tuple(partitions),
            spikes=tuple(spikes),
            crashes=tuple(crashes),
            name=name,
        )

    # ------------------------------------------------------------------
    # Model taxonomy
    # ------------------------------------------------------------------

    def classify(
        self,
        delta: Time,
        known_bound: Time | None = None,
        loss_threshold: float = LOSS_COVER_THRESHOLD,
    ) -> PlanClassification:
        """Does this plan stay within the paper's model assumptions?

        ``known_bound`` is the delay model's
        :attr:`~repro.net.delay.DelayModel.known_bound` (``None`` for
        eventually-synchronous / asynchronous models, whose delays are
        already arbitrary).  See the module docstring for the rules.
        """
        reasons: list[str] = []
        for loss in self.losses:
            if loss.probability > loss_threshold:
                reasons.append(
                    f"loss probability {loss.probability} exceeds the "
                    f"broadcast-cover threshold {loss_threshold} "
                    f"(the model assumes reliable channels)"
                )
        for partition in self.partitions:
            if partition.mode == "drop":
                reasons.append(
                    f"drop-mode partition [{partition.start}, {partition.end}) "
                    f"loses messages (the model assumes reliable channels)"
                )
            elif partition.duration > delta:
                reasons.append(
                    f"defer partition of length {partition.duration} exceeds "
                    f"the sync bound delta={delta} (timely delivery broken)"
                )
        if known_bound is not None:
            for spike in self.spikes:
                reasons.append(
                    f"delay spike (x{spike.factor} +{spike.extra}) can exceed "
                    f"the known bound delta={known_bound}"
                )
        # Crashes are departures; churn is part of the model.
        return PlanClassification(in_model=not reasons, reasons=tuple(reasons))

    # ------------------------------------------------------------------
    # Serialization (regression corpus / counterexample reports)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        faults = []
        for kind, fault in self._tagged_faults():
            entry: dict[str, Any] = {"kind": kind}
            for f in fields(fault):
                value = getattr(fault, f.name)
                if isinstance(value, frozenset):
                    value = sorted(value)
                entry[f.name] = value
            faults.append(entry)
        return {"name": self.name, "faults": faults}

    def _tagged_faults(self) -> Iterator[tuple[str, Fault]]:
        for loss in self.losses:
            yield "loss", loss
        for partition in self.partitions:
            yield "partition", partition
        for spike in self.spikes:
            yield "spike", spike
        for crash in self.crashes:
            yield "crash", crash

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        _reject_unknown_keys("fault plan", payload, ("name", "faults"))
        entries = payload.get("faults", [])
        if not isinstance(entries, list):
            raise ConfigError(
                f"fault plan 'faults' must be a list, got {entries!r}"
            )
        faults: list[Fault] = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ConfigError(f"fault entry must be a JSON object, got {entry!r}")
            entry = dict(entry)
            kind = entry.pop("kind", None)
            fault_cls = _FAULT_KINDS.get(kind)
            if fault_cls is None:
                raise ConfigError(f"unknown fault kind {kind!r}")
            for key in ("payload_types", "group_a", "group_b"):
                if entry.get(key) is not None and key in entry:
                    entry[key] = frozenset(entry[key])
            try:
                faults.append(fault_cls(**entry))
            except TypeError as error:
                raise ConfigError(f"bad {kind} fault entry: {error}") from error
        return cls.of(*faults, name=str(payload.get("name", "")))

    def map_pids(self, fn: Callable[[str], str]) -> "FaultPlan":
        """Rewrite every process identity the plan references.

        Applies ``fn`` to partition groups, loss/spike sender and
        destination filters, and crash pins — *not* to the symbolic
        crash ``victim`` roles (``"sender"``/``"dest"``).  A sharded
        cluster uses this to scope a plan written against bare
        ``p0001``-style names into one shard's pid namespace
        (``s2.p0001`` …), so the same library plan can target any
        shard, or every shard, without rewriting it by hand.
        """

        def group(pids: frozenset[str] | None) -> frozenset[str] | None:
            return None if pids is None else frozenset(fn(pid) for pid in pids)

        def single(pid: str | None) -> str | None:
            return None if pid is None else fn(pid)

        return replace(
            self,
            losses=tuple(
                replace(f, sender=single(f.sender), dest=single(f.dest))
                for f in self.losses
            ),
            partitions=tuple(
                replace(f, group_a=group(f.group_a), group_b=group(f.group_b))
                for f in self.partitions
            ),
            spikes=tuple(
                replace(f, sender=single(f.sender), dest=single(f.dest))
                for f in self.spikes
            ),
            crashes=tuple(replace(f, pid=single(f.pid)) for f in self.crashes),
        )

    def describe(self) -> str:
        if self.is_empty:
            return f"FaultPlan({self.name or 'empty'}: no faults)"
        parts = [
            f"{len(self.losses)} loss",
            f"{len(self.partitions)} partition",
            f"{len(self.spikes)} spike",
            f"{len(self.crashes)} crash",
        ]
        return f"FaultPlan({self.name or 'anonymous'}: {', '.join(parts)})"
