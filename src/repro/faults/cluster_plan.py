"""Declarative cluster-wide fault plans: the serializable front door.

A :class:`~repro.faults.plan.FaultPlan` describes faults for *one*
population; a sharded cluster composes many.  Before this module the
composition lived only at install time (``ClusterSystem.install_faults``
scoping one plan into one shard's pid namespace) and could not be
written down — a resharding-storm counterexample whose crash hits shard
2's destination agent while loss soaks shard 0 had no JSON form the
corpus could replay.

:class:`ClusterFaultPlan` fixes that: one **cluster-wide** schedule
(installed on every shard) plus any number of **per-shard** schedules,
composed by :meth:`plan_for` into the single plan each shard's injector
receives (cluster-wide faults first, then that shard's own, merged by
:meth:`FaultPlan.merged`).  Crash-at-migration-phase triggers need no
new machinery — the migration payloads (``MigFetch``, ``MigFetchReply``,
``MigInstall``, ``MigAck``) are ordinary message types, so an ordinary
:class:`~repro.faults.plan.CrashFault` with ``phase="MigInstall"``
crashes a node at exactly that handoff step.

Round-trips through JSON like :class:`FaultPlan` does
(:meth:`to_dict` / :meth:`from_dict`), so cluster scenarios sit in the
seed corpus next to single-population ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..sim.clock import Time
from ..sim.errors import ConfigError
from .plan import (
    LOSS_COVER_THRESHOLD,
    FaultPlan,
    PlanClassification,
    _reject_unknown_keys,
)


@dataclass(frozen=True)
class ClusterFaultPlan:
    """Per-shard fault schedules plus a cluster-wide one, composable.

    ``per_shard`` maps shard indices to plans; a shard may appear more
    than once (entries merge in order).  The empty cluster plan installs
    nothing and perturbs nothing, like the empty :class:`FaultPlan`.
    """

    cluster_wide: FaultPlan = field(default_factory=FaultPlan)
    per_shard: tuple[tuple[int, FaultPlan], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_shard", tuple(
            (int(shard), plan) for shard, plan in self.per_shard
        ))
        for shard, plan in self.per_shard:
            if shard < 0:
                raise ConfigError(f"per-shard fault entry has shard {shard} < 0")
            if not isinstance(plan, FaultPlan):
                raise ConfigError(
                    f"per-shard fault entry for shard {shard} is not a "
                    f"FaultPlan: {plan!r}"
                )

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.cluster_wide.is_empty and all(
            plan.is_empty for _, plan in self.per_shard
        )

    def shard_indices(self) -> tuple[int, ...]:
        """Every shard with a per-shard schedule, ascending, deduplicated."""
        return tuple(sorted({shard for shard, _ in self.per_shard}))

    def plan_for(self, shard: int) -> FaultPlan:
        """The single plan shard ``shard``'s injector receives.

        Cluster-wide faults first, then the shard's own entries in
        declaration order — the same stable ordering
        :meth:`FaultPlan.atomic_faults` promises the shrinker.
        """
        composed = self.cluster_wide
        for index, plan in self.per_shard:
            if index == shard:
                composed = composed.merged(plan)
        return composed

    # ------------------------------------------------------------------
    # Model taxonomy
    # ------------------------------------------------------------------

    def classify(
        self,
        delta: Time,
        known_bound: Time | None = None,
        loss_threshold: float = LOSS_COVER_THRESHOLD,
    ) -> PlanClassification:
        """In-model iff every composed schedule is; reasons pooled.

        A cluster run is judged like a single-population one: one
        out-of-model fault anywhere excuses a violation, no matter
        which shard it struck.
        """
        reasons: list[str] = []
        seen: set[str] = set()
        parts = [self.cluster_wide] + [plan for _, plan in self.per_shard]
        for plan in parts:
            for reason in plan.classify(delta, known_bound, loss_threshold).reasons:
                if reason not in seen:
                    seen.add(reason)
                    reasons.append(reason)
        return PlanClassification(in_model=not reasons, reasons=tuple(reasons))

    # ------------------------------------------------------------------
    # Serialization (corpus / counterexample reports)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "cluster_wide": self.cluster_wide.to_dict(),
            "per_shard": [
                {"shard": shard, "plan": plan.to_dict()}
                for shard, plan in self.per_shard
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ClusterFaultPlan":
        _reject_unknown_keys(
            "cluster fault plan", payload, ("name", "cluster_wide", "per_shard")
        )
        entries = payload.get("per_shard", [])
        if not isinstance(entries, list):
            raise ConfigError(
                f"cluster fault plan 'per_shard' must be a list, got {entries!r}"
            )
        per_shard = []
        for entry in entries:
            _reject_unknown_keys("per-shard fault entry", entry, ("shard", "plan"))
            if "shard" not in entry:
                raise ConfigError(f"per-shard fault entry lacks a shard: {entry!r}")
            per_shard.append(
                (int(entry["shard"]), FaultPlan.from_dict(entry.get("plan", {})))
            )
        return cls(
            cluster_wide=FaultPlan.from_dict(payload.get("cluster_wide", {})),
            per_shard=tuple(per_shard),
            name=str(payload.get("name", "")),
        )

    def describe(self) -> str:
        if self.is_empty:
            return f"ClusterFaultPlan({self.name or 'empty'}: no faults)"
        return (
            f"ClusterFaultPlan({self.name or 'anonymous'}: "
            f"cluster-wide {len(self.cluster_wide)} fault(s), "
            f"{len(self.per_shard)} per-shard schedule(s))"
        )
