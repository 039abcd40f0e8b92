"""Adversarial scenario explorer: sweep, check, shrink, report.

A FoundationDB/Jepsen-style deterministic simulation-testing loop over
the register protocols: enumerate a matrix of protocol × delay model ×
churn profile × fault plan × seed, run every cell under the seeded
fault injector, judge each closed history with the regularity /
atomicity / liveness checkers, and shrink any violating run's fault
schedule to a minimal counterexample (drop whole faults — down to the
empty plan when the faults turn out irrelevant — then bisect the
surviving windows; the minimized plan is re-judged, so a shrink that
lands in in-model territory escalates the cell to a bug).

Verdicts are driven by **regularity alone**.  Atomicity and liveness
are checked and recorded on every outcome but never fail a run: a
regular register legitimately exhibits new/old inversions (that is
experiment E1's point), and liveness caps are protocol-specific (the
ES cap ``1/(3δn)`` sits below sweep churn rates, so quorum stalls are
expected there — "stall, don't lie" is the behaviour under test).

The explorer separates two kinds of violation using
:meth:`~repro.faults.plan.FaultPlan.classify`:

* ``bug`` — the history violated regularity although the plan stayed
  within the paper's model assumptions.  This refutes a lemma (or
  reveals a harness defect) and fails the CLI run.
* ``expected-breakage`` — the plan broke a hypothesis (heavy loss, a
  drop partition, a spike past the known bound) and the protocol broke
  with it.  These runs *document* the paper's assumptions; the corpus
  records them so the boundary never silently moves.

Everything is derived from the root seed: two invocations with the
same arguments produce byte-identical reports (no wall-clock values
appear anywhere in the artifact).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator

from ..core.checker import LivenessReport, SafetyReport
from ..core.history import operation_digest
from ..exec.runner import run_specs
from ..exec.spec import RunSpec
from ..faults.plan import (
    CrashFault,
    DelaySpikeFault,
    Fault,
    FaultPlan,
    LossFault,
    PartitionFault,
    PlanClassification,
)
from ..churn.model import sharded_synchronous_churn_bound
from ..net.delay import (
    DEFAULT_GST_FACTOR,
    DELAY_MODEL_NAMES,
    DUAL_P2P_FRACTION,
    make_delay,
)
from ..protocols.common import MIGRATION_PAYLOADS
from ..runtime.assembly import scope_pid, split_population
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from ..sim.clock import Time
from ..sim.errors import ExperimentError
from .generators import assign_keys, make_key_picker, read_heavy_plan
from .schedule import WorkloadDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.migration import MigrationRecord
    from ..cluster.system import ClusterSystem

REPORT_SCHEMA_VERSION = 1

#: Verdicts a scenario run can end with.
VERDICT_OK = "ok"
VERDICT_NEAR_MISS = "near-miss"  # faults fired, safety held
VERDICT_BUG = "bug"  # violation under an in-model plan
VERDICT_BREAKAGE = "expected-breakage"  # violation under an out-of-model plan


def _seed_group(n: int, fraction: float = 1 / 3) -> frozenset[str]:
    """The first ``fraction`` of the seed pids (``p0001`` …), min 1."""
    count = max(1, int(n * fraction))
    return frozenset(f"p{i:04d}" for i in range(1, count + 1))


# ----------------------------------------------------------------------
# The fault-plan library the matrix sweeps
# ----------------------------------------------------------------------


def _plan_none(delta: Time, horizon: Time, n: int) -> FaultPlan:
    return FaultPlan(name="none")


#: Reply-style payloads per protocol (sync, es, abd) — the messages the
#: light-loss plan may eat without touching the dissemination itself.
REPLY_PAYLOADS = frozenset({"Reply", "EsReply", "EsAck", "AbdQueryReply", "AbdAck"})

#: Dissemination-style payloads per protocol — the writer-crash trigger.
WRITE_PAYLOADS = frozenset({"WriteMsg", "EsWrite", "AbdWrite"})


def _plan_light_loss(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Below the cover threshold and confined to reply/ack traffic: the
    # dissemination itself stays reliable, so safety should survive.
    return FaultPlan.of(
        LossFault(probability=0.05, payload_types=REPLY_PAYLOADS),
        name="light-loss",
    )


def _plan_heavy_loss(delta: Time, horizon: Time, n: int) -> FaultPlan:
    return FaultPlan.of(LossFault(probability=0.35), name="heavy-loss")


def _plan_partition_defer(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Shorter than delta and defer-mode: every crossing message still
    # meets the synchronous bound, so the run stays in-model.
    start = horizon * 0.3
    return FaultPlan.of(
        PartitionFault(
            start=start, end=start + 0.8 * delta, group_a=_seed_group(n), mode="defer"
        ),
        name="partition-defer",
    )


def _plan_partition_drop(delta: Time, horizon: Time, n: int) -> FaultPlan:
    start = horizon * 0.3
    return FaultPlan.of(
        PartitionFault(
            start=start, end=start + 3.0 * delta, group_a=_seed_group(n), mode="drop"
        ),
        name="partition-drop",
    )


def _plan_delay_spike(delta: Time, horizon: Time, n: int) -> FaultPlan:
    start = horizon * 0.4
    return FaultPlan.of(
        DelaySpikeFault(start=start, end=start + 2.0 * delta, factor=4.0),
        name="delay-spike",
    )


def _plan_writer_crash(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # The writer departs the instant its third WRITE dissemination
    # lands somewhere — the Figure 3(a) flavour of departure.  One
    # crash fault per protocol's write payload; at most one can ever
    # fire (a run speaks a single protocol).
    return FaultPlan.of(
        *(
            CrashFault(phase=phase, victim="sender", occurrence=3)
            for phase in sorted(WRITE_PAYLOADS)
        ),
        name="writer-crash",
    )


def _plan_combo(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Deliberately over-provisioned; the shrinker's job is to find
    # which ingredient actually breaks the run.
    start = horizon * 0.3
    return FaultPlan.of(
        LossFault(probability=0.25, start=horizon * 0.1),
        PartitionFault(
            start=start, end=start + 3.0 * delta, group_a=_seed_group(n), mode="drop"
        ),
        DelaySpikeFault(start=horizon * 0.6, end=horizon * 0.6 + 2.0 * delta, factor=3.0),
        name="combo",
    )


def _plan_mig_crash_copy(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Crash whichever node a MigFetchReply is delivered to — that is
    # the source shard's migration agent, mid-copy.  The handoff must
    # abort cleanly (ownership stays at the source), so a violation
    # here is a bug: crashes are ordinary in-model departures.
    return FaultPlan.of(
        CrashFault(phase="MigFetchReply", victim="dest"),
        name="mig-crash-copy",
    )


def _plan_mig_crash_install(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Crash a destination replica at its second MigInstall delivery —
    # mid-install, after some replicas already staged the value.  The
    # coordinator must either reach full present-pid coverage (the
    # victim departed, so it no longer counts) and commit, or abort
    # with the source still owning the key.
    return FaultPlan.of(
        CrashFault(phase="MigInstall", victim="dest", occurrence=2),
        name="mig-crash-install",
    )


def _plan_mig_loss(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Eat *every* migration message.  The handoff can never finish —
    # but losing coordination traffic is in-model for the register
    # itself (classify_scenario filters migration-only losses), so the
    # protocol must time out, abort, and keep serving from the source.
    return FaultPlan.of(
        LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS),
        name="mig-loss",
    )


def _plan_mig_storm(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # The resharding storm: heavy loss on *all* traffic plus crashes at
    # both handoff phases.  Out-of-model (the loss soaks dissemination
    # too), so violations document the boundary, not refute a lemma.
    return FaultPlan.of(
        LossFault(probability=0.35),
        CrashFault(phase="MigFetchReply", victim="dest"),
        CrashFault(phase="MigInstall", victim="dest"),
        name="mig-storm",
    )


def _plan_rebal_loss(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Eat every handoff-coordination message under a *rebalancer's*
    # storms of concurrent migrations.  Still in-model (the register
    # makes no hypothesis about coordination traffic): every planned
    # batch must abort cleanly while the store keeps serving, so a
    # violation here is a rebalancer-induced bug.
    return FaultPlan.of(
        LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS),
        name="rebal-loss",
    )


def _plan_rebal_crash(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Crash the handoff agents at both remote phases while the
    # rebalancer keeps planning fresh batches — in-model departures, so
    # safety must survive every storm.
    return FaultPlan.of(
        CrashFault(phase="MigFetchReply", victim="dest"),
        CrashFault(phase="MigInstall", victim="dest", occurrence=2),
        name="rebal-crash",
    )


def _plan_rebal_storm(delta: Time, horizon: Time, n: int) -> FaultPlan:
    # Heavy loss on *all* traffic plus agent crashes under continuous
    # rebalancing: out-of-model (the loss soaks dissemination too), the
    # boundary-documenting flavour of the family.
    return FaultPlan.of(
        LossFault(probability=0.35),
        CrashFault(phase="MigFetchReply", victim="dest"),
        CrashFault(phase="MigInstall", victim="dest"),
        name="rebal-storm",
    )


PLAN_BUILDERS = {
    "none": _plan_none,
    "light-loss": _plan_light_loss,
    "heavy-loss": _plan_heavy_loss,
    "partition-defer": _plan_partition_defer,
    "partition-drop": _plan_partition_drop,
    "delay-spike": _plan_delay_spike,
    "writer-crash": _plan_writer_crash,
    "combo": _plan_combo,
    "mig-crash-copy": _plan_mig_crash_copy,
    "mig-crash-install": _plan_mig_crash_install,
    "mig-loss": _plan_mig_loss,
    "mig-storm": _plan_mig_storm,
    "rebal-loss": _plan_rebal_loss,
    "rebal-crash": _plan_rebal_crash,
    "rebal-storm": _plan_rebal_storm,
}

#: The default sweep deliberately excludes the ``mig-*`` and
#: ``rebal-*`` storm plans: they only bite when the cell schedules
#: migrations (or runs a rebalancer), and keeping them out preserves
#: the recorded default-matrix order byte for byte.
DEFAULT_PLAN_NAMES = tuple(
    name
    for name in PLAN_BUILDERS
    if not name.startswith(("mig-", "rebal-"))
)


def build_plan(name: str, delta: Time, horizon: Time, n: int) -> FaultPlan:
    """Instantiate a library plan for the given scenario dimensions."""
    try:
        builder = PLAN_BUILDERS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown fault plan {name!r}; choose from {sorted(PLAN_BUILDERS)}"
        ) from None
    return builder(delta, horizon, n)


# ----------------------------------------------------------------------
# One scenario
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to replay one explorer cell exactly."""

    protocol: str = "sync"
    n: int = 10
    delta: Time = 5.0
    delay: str = "sync"
    churn_rate: float = 0.0
    plan: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 0
    horizon: Time = 120.0
    read_rate: float = 0.4
    write_period: Time = 20.0
    #: Register-space key count; 1 is the classic single register
    #: (byte-identical to pre-RegisterSpace cells, which is why the
    #: recorded corpus replays unchanged).
    keys: int = 1
    #: How keyed workload operations pick their key.  Cluster cells
    #: (``shards > 1``) apply it at the *shard* level (``zipf`` = a hot
    #: shard), then pick uniformly within the drawn shard.
    key_dist: str = "uniform"
    #: Shard count; 1 runs the classic single-population cell
    #: (byte-identical to the pre-cluster explorer, which is why the
    #: recorded corpus replays unchanged), larger counts run a
    #: :class:`~repro.cluster.system.ClusterSystem` with the plan
    #: installed cluster-wide and the merged history judged.
    shards: int = 1
    #: Live key migrations scheduled during the run (cluster cells
    #: only; requires ``shards > 1`` and ``keys > 1``).  Keys round-
    #: robin, each hops to the next shard, starts spread over the
    #: middle of the horizon — the resharding-storm axis.
    migrations: int = 0
    #: Per-window migration budget of a load-watching
    #: :class:`~repro.cluster.rebalance.Rebalancer` riding the run
    #: (0 = none; requires ``shards > 1`` and ``keys > 1``).  Unlike
    #: the ``migrations`` axis the handoffs are *planned by policy*
    #: from observed load, so a safety violation under an in-model
    #: plan here is a rebalancer-induced bug.
    rebalance: int = 0

    def label(self) -> str:
        plan = self.plan.name or "anonymous"
        keyed = f" keys={self.keys}/{self.key_dist}" if self.keys > 1 else ""
        sharded = f" shards={self.shards}" if self.shards > 1 else ""
        migrating = f" mig={self.migrations}" if self.migrations else ""
        rebalancing = f" rebal={self.rebalance}" if self.rebalance else ""
        return (
            f"{self.protocol}/{self.delay} c={self.churn_rate:g} "
            f"plan={plan} seed={self.seed}{keyed}{sharded}{migrating}"
            f"{rebalancing}"
        )

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "protocol": self.protocol,
            "n": self.n,
            "delta": self.delta,
            "delay": self.delay,
            "churn_rate": self.churn_rate,
            "plan": self.plan.to_dict(),
            "seed": self.seed,
            "horizon": self.horizon,
            "read_rate": self.read_rate,
            "write_period": self.write_period,
            "keys": self.keys,
            "key_dist": self.key_dist,
            "shards": self.shards,
        }
        # Only emitted when set, so pre-resharding spec dicts (and the
        # recorded corpus) stay byte-identical.
        if self.migrations:
            payload["migrations"] = self.migrations
        if self.rebalance:
            payload["rebalance"] = self.rebalance
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScenarioSpec":
        data = dict(payload)
        data["plan"] = FaultPlan.from_dict(data.get("plan") or {})
        return cls(**data)


@dataclass(frozen=True)
class ScenarioOutcome:
    """The checkers' judgement of one scenario run."""

    spec: ScenarioSpec
    verdict: str
    safe: bool
    violation_count: int
    checked_count: int
    atomic: bool
    inversion_count: int
    live: bool
    stuck_count: int
    classification: PlanClassification
    digest: str
    fault_counters: dict[str, int]
    network_counters: dict[str, int]
    reads_issued: int
    writes_issued: int
    quiesced: bool
    #: Handoff accounting (cluster cells with ``spec.migrations`` or
    #: ``spec.rebalance``; zero elsewhere).  Every scheduled migration
    #: must finish as exactly one of these — a record still mid-phase
    #: at the horizon is the stuck-handoff signal the storm tests
    #: assert against.  ``migrations_planned`` is the total the cell
    #: scheduled (fixed for the ``migrations`` axis, policy-decided for
    #: the ``rebalance`` axis).
    migrations_committed: int = 0
    migrations_aborted: int = 0
    migrations_planned: int = 0
    first_violation: str | None = None
    shrunk_plan: FaultPlan | None = None
    shrink_runs: int = 0
    # The verdict of re-running the cell under the shrunk plan: a
    # shrink can cross from out-of-model into in-model territory (e.g.
    # a 3-delta defer partition bisected below delta), isolating a
    # genuine bug the original plan's classification excused.
    shrunk_verdict: str | None = None

    @property
    def violated(self) -> bool:
        return not self.safe

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "verdict": self.verdict,
            "safe": self.safe,
            "violations": self.violation_count,
            "checked": self.checked_count,
            "atomic": self.atomic,
            "inversions": self.inversion_count,
            "live": self.live,
            "stuck": self.stuck_count,
            "in_model": self.classification.in_model,
            "classification_reasons": list(self.classification.reasons),
            "digest": self.digest,
            "fault_counters": dict(self.fault_counters),
            "network_counters": dict(self.network_counters),
            "reads_issued": self.reads_issued,
            "writes_issued": self.writes_issued,
            "quiesced": self.quiesced,
        }
        if self.spec.migrations or self.spec.rebalance:
            payload["migrations_committed"] = self.migrations_committed
            payload["migrations_aborted"] = self.migrations_aborted
        if self.spec.rebalance:
            payload["migrations_planned"] = self.migrations_planned
        if self.first_violation is not None:
            payload["first_violation"] = self.first_violation
        if self.shrunk_plan is not None:
            payload["shrunk_plan"] = self.shrunk_plan.to_dict()
            payload["shrink_runs"] = self.shrink_runs
            payload["shrunk_verdict"] = self.shrunk_verdict
        return payload

    def summary(self) -> str:
        checks = (
            f"safe={self.safe} atomic={self.atomic} live={self.live} "
            f"({self.violation_count}/{self.checked_count} bad reads)"
        )
        return f"[{self.verdict:>17}] {self.spec.label()}  {checks}"


def classify_scenario(
    spec: ScenarioSpec, known_bound: Time | None
) -> PlanClassification:
    """Is this *whole scenario* within the model each protocol assumes?

    Extends :meth:`FaultPlan.classify` with the protocol-level
    hypotheses: the synchronous protocols need a known delay bound, the
    ES protocol needs eventual synchrony, the static ABD baseline needs
    no churn, and every dynamic protocol needs churn below the
    synchronous cap ``1/(3δ)`` (Lemma 2's regime).  A regularity
    violation in an in-model scenario refutes a lemma; one in an
    out-of-model scenario documents why the hypothesis is needed.

    Two sharded refinements:

    * Losses confined to the migration payloads are *stripped before
      classification*: the paper's register makes no hypothesis about
      handoff coordination traffic, so even losing all of it leaves the
      scenario in-model — the migration must abort cleanly, and a
      violation under ``mig-loss`` is a bug, not excused breakage.
    * Cluster cells (``shards > 1``) run Lemma 2's adversary against
      each shard's *own* slice of the population, so the churn cap is
      the per-shard ``(1 − 1/n_s)/(3δ)`` of the smallest shard, not the
      single-population ``1/(3δ)`` (which overstates what a 6-process
      shard tolerates).
    """
    plan = spec.plan
    kept_losses = tuple(
        loss
        for loss in plan.losses
        if not (loss.payload_types and frozenset(loss.payload_types) <= MIGRATION_PAYLOADS)
    )
    if len(kept_losses) != len(plan.losses):
        plan = replace(plan, losses=kept_losses)
    plan_cls = plan.classify(spec.delta, known_bound=known_bound)
    reasons = list(plan_cls.reasons)
    if spec.protocol in ("sync", "naive") and spec.delay not in ("sync", "dual"):
        reasons.append(
            f"the {spec.protocol} protocol assumes a synchronous system; "
            f"the {spec.delay!r} delay model provides no usable bound"
        )
    if spec.protocol == "es" and spec.delay == "async":
        reasons.append(
            "the es protocol assumes eventual synchrony; the async model "
            "never stabilizes (the Theorem 2 setting)"
        )
    if spec.delay == "dual":
        # The dual model's point-to-point bound is delta/2 (make_delay),
        # and the protocol shortens its waits relying on it — a defer
        # partition may hold a p2p message up to its full duration.
        p2p_bound = DUAL_P2P_FRACTION * spec.delta
        for partition in spec.plan.partitions:
            if partition.mode == "defer" and partition.duration > p2p_bound:
                reasons.append(
                    f"defer partition of length {partition.duration} exceeds "
                    f"the dual model's point-to-point bound {p2p_bound}"
                )
    if spec.delay == "es":
        # known_bound is None, but eventual synchrony still promises
        # post-GST delivery within delta — a spike window reaching past
        # GST breaks that hypothesis.
        gst = DEFAULT_GST_FACTOR * spec.delta
        for spike in spec.plan.spikes:
            if spike.end is None or spike.end > gst:
                reasons.append(
                    f"delay spike window reaches past GST={gst}; eventual "
                    f"synchrony promises post-GST delivery within delta"
                )
    if spec.protocol == "abd" and spec.churn_rate > 0:
        reasons.append(
            "the abd baseline assumes a static system; churn violates "
            "its fixed-universe hypothesis"
        )
    if spec.shards > 1:
        shard_n = min(split_population(spec.n, spec.shards))
        sync_cap = sharded_synchronous_churn_bound(spec.delta, shard_n)
        if spec.churn_rate > sync_cap:
            reasons.append(
                f"churn rate {spec.churn_rate} exceeds the per-shard cap "
                f"(1 - 1/{shard_n})/(3delta) = {sync_cap:.4f} of the "
                f"smallest shard (n_s = {shard_n})"
            )
    else:
        sync_cap = 1.0 / (3.0 * spec.delta)
        if spec.churn_rate > sync_cap:
            reasons.append(
                f"churn rate {spec.churn_rate} exceeds the synchronous cap "
                f"1/(3delta) = {sync_cap:.4f}"
            )
    return PlanClassification(in_model=not reasons, reasons=tuple(reasons))


#: Injector counters that mean "a fault actually fired in this run" —
#: the near-miss bit shared by single-population and cluster cells.
FAULT_FIRED_COUNTERS = (
    "lost",
    "partition_dropped",
    "deferred",
    "spiked",
    "crashes_fired",
)


def _build_outcome(
    spec: ScenarioSpec,
    safety: SafetyReport,
    atomicity: Any,
    liveness: LivenessReport,
    classification: PlanClassification,
    digest: str,
    fault_counters: dict[str, int],
    network_counters: dict[str, int],
    reads_issued: int,
    writes_issued: int,
    quiesced: bool,
    migrations_committed: int = 0,
    migrations_aborted: int = 0,
    migrations_planned: int = 0,
) -> ScenarioOutcome:
    """The one verdict rule, shared by every cell flavour.

    A regularity violation is a bug in-model and expected breakage
    out-of-model; a safe run where any fault actually fired is a
    near-miss; otherwise ok.  Keeping this in one place means sharded
    cells can never judge with stale rules.
    """
    faults_fired = any(
        fault_counters.get(key, 0) for key in FAULT_FIRED_COUNTERS
    )
    if not safety.is_safe:
        verdict = VERDICT_BUG if classification.in_model else VERDICT_BREAKAGE
    elif faults_fired:
        verdict = VERDICT_NEAR_MISS
    else:
        verdict = VERDICT_OK
    violations = safety.violations
    return ScenarioOutcome(
        spec=spec,
        verdict=verdict,
        safe=safety.is_safe,
        violation_count=safety.violation_count,
        checked_count=safety.checked_count,
        atomic=atomicity.is_atomic,
        inversion_count=len(atomicity.inversions),
        live=liveness.is_live,
        stuck_count=len(liveness.stuck),
        classification=classification,
        digest=digest,
        fault_counters=fault_counters,
        network_counters=network_counters,
        reads_issued=reads_issued,
        writes_issued=writes_issued,
        quiesced=quiesced,
        migrations_committed=migrations_committed,
        migrations_aborted=migrations_aborted,
        migrations_planned=migrations_planned,
        first_violation=(violations[0].explanation if violations else None),
    )


def scenario_cell(**params: Any) -> ScenarioOutcome:
    """Execution-engine cell: a ``ScenarioSpec`` as plain parameters.

    Registered as kind ``"scenario"`` in :mod:`repro.exec.registry`;
    the params are exactly ``ScenarioSpec.to_dict()``, so a spec
    round-trips through JSON artifacts, the seed corpus and the worker
    pool without carrying code.
    """
    return run_scenario(ScenarioSpec.from_dict(params))


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Run one cell of the matrix and judge its history.

    ``shards > 1`` runs the cell as a sharded cluster (the plan
    installed cluster-wide, shard-scoped into every shard's pid
    namespace; the merged history judged by the cluster checkers);
    ``shards == 1`` is the historical single-population path,
    byte-identical to the pre-cluster explorer.
    """
    if spec.shards < 1:
        raise ExperimentError(
            f"shard count must be at least 1, got {spec.shards!r}"
        )
    if spec.migrations < 0:
        raise ExperimentError(
            f"migration count must be non-negative, got {spec.migrations!r}"
        )
    if spec.migrations and (spec.shards < 2 or spec.keys < 2):
        raise ExperimentError(
            "migrations need somewhere to go: a cell with "
            f"migrations={spec.migrations} requires shards >= 2 and "
            f"keys >= 2, got shards={spec.shards} keys={spec.keys}"
        )
    if spec.rebalance < 0:
        raise ExperimentError(
            f"rebalance budget must be non-negative, got {spec.rebalance!r}"
        )
    if spec.rebalance and (spec.shards < 2 or spec.keys < 2):
        raise ExperimentError(
            "a rebalancer needs somewhere to move keys: a cell with "
            f"rebalance={spec.rebalance} requires shards >= 2 and "
            f"keys >= 2, got shards={spec.shards} keys={spec.keys}"
        )
    if spec.shards > 1:
        return _run_cluster_scenario(spec)
    plan = spec.plan
    config = SystemConfig(
        n=spec.n,
        delta=spec.delta,
        protocol=spec.protocol,
        delay=make_delay(spec.delay, spec.delta),
        seed=spec.seed,
        trace=False,
        keys=spec.keys,
        faults=plan if not plan.is_empty else None,
    )
    system = DynamicSystem(config)
    if spec.churn_rate > 0:
        system.attach_churn(rate=spec.churn_rate, min_stay=3.0 * spec.delta)
    driver = WorkloadDriver(system)
    workload = read_heavy_plan(
        start=5.0,
        end=max(6.0, spec.horizon - 4.0 * spec.delta),
        write_period=spec.write_period,
        read_rate=spec.read_rate,
        rng=system.rng.stream("explorer.plan"),
    )
    if spec.keys > 1:
        # Key assignment draws from its own stream, so a keys=1 cell
        # stays byte-identical to the pre-RegisterSpace explorer.
        workload = assign_keys(
            workload,
            make_key_picker(
                spec.key_dist, system.keys, system.rng.stream("explorer.keys")
            ),
        )
    driver.install(workload)
    system.run_until(spec.horizon)
    history = system.close()
    safety: SafetyReport = system.check_safety()
    atomicity = system.check_atomicity()
    liveness: LivenessReport = system.check_liveness(grace=10.0 * spec.delta)
    return _build_outcome(
        spec,
        safety,
        atomicity,
        liveness,
        classify_scenario(spec, system.delay_model.known_bound),
        digest=operation_digest(history),
        fault_counters=(
            system.faults.counters() if system.faults is not None else {}
        ),
        network_counters={
            "sent": system.network.sent_count,
            "delivered": system.network.delivered_count,
            "dropped": system.network.dropped_count,
            "faulted": system.network.faulted_count,
        },
        reads_issued=driver.stats.reads_issued,
        writes_issued=driver.stats.writes_issued,
        quiesced=system.engine.next_event_time() is None,
    )


#: A bare (un-namespaced) generated process identity, ``p0001`` style.
_BARE_SEED_PID = re.compile(r"p\d{4}")


def _shard_scoped_plan(
    plan: FaultPlan, index: int, shard_n: int, total_n: int
) -> FaultPlan:
    """Scope a library plan into shard ``index``, preserving geometry.

    The library's partition groups name a *fraction* of the total seed
    population (``_seed_group``); inside an ``n/S``-sized shard the
    same literal pids would cover the whole shard and the "partition"
    would degenerate to seeds-versus-joiners.  Groups made entirely of
    bare seed pids are therefore rebuilt as the same fraction of the
    shard's (smaller) seed population — never all of it — so a
    partition-drop cell still splits the shard's quorum.  Two-group
    partitions rescale to *disjoint* leading pid ranges (falling back
    to the plain mapping when the shard is too small to hold both).
    Everything else (loss/spike filters, crash pins, mixed groups)
    gets the plain namespace mapping.
    """
    def pid_range(start: int, count: int) -> frozenset[str]:
        return frozenset(
            scope_pid(f"p{i:04d}", index) for i in range(start, start + count)
        )

    def scaled(group: frozenset[str]) -> int:
        return max(1, round(len(group) * shard_n / total_n))

    def prefixed(group: frozenset[str] | None) -> frozenset[str] | None:
        if group is None:
            return None
        return frozenset(scope_pid(pid, index) for pid in group)

    def rescale(fault: PartitionFault) -> PartitionFault:
        bare_a = all(_BARE_SEED_PID.fullmatch(pid) for pid in fault.group_a)
        bare_b = fault.group_b is None or all(
            _BARE_SEED_PID.fullmatch(pid) for pid in fault.group_b
        )
        if not (bare_a and bare_b):
            return replace(
                fault,
                group_a=prefixed(fault.group_a),
                group_b=prefixed(fault.group_b),
            )
        count_a = scaled(fault.group_a)
        if fault.group_b is None:
            count_a = min(count_a, max(1, shard_n - 1))
            return replace(fault, group_a=pid_range(1, count_a), group_b=None)
        # Two explicit groups: allocate *disjoint* leading pid ranges.
        count_b = scaled(fault.group_b)
        if count_a + count_b > shard_n:
            if shard_n < 2:
                # Too small to hold two disjoint non-empty groups at
                # any scale; the originals were disjoint, so plain
                # mapping keeps the plan valid (if degenerate, like
                # the shard itself).
                return replace(
                    fault,
                    group_a=prefixed(fault.group_a),
                    group_b=prefixed(fault.group_b),
                )
            count_a = max(1, min(count_a, shard_n - 1))
            count_b = shard_n - count_a
        return replace(
            fault,
            group_a=pid_range(1, count_a),
            group_b=pid_range(1 + count_a, count_b),
        )

    mapped = plan.map_pids(lambda pid: scope_pid(pid, index))
    return replace(
        mapped, partitions=tuple(rescale(fault) for fault in plan.partitions)
    )


def install_shard_scoped(cluster: ClusterSystem, plan: FaultPlan) -> None:
    """Install a library ``plan`` on every shard of ``cluster``, each
    copy scoped into its shard's pid namespace and rescaled to the
    shard's slice of the population (:func:`_shard_scoped_plan`)."""
    for index, shard_n in enumerate(cluster.config.shard_sizes()):
        cluster.install_faults(
            _shard_scoped_plan(plan, index, shard_n, cluster.config.n),
            shards=[index],
            scope_pids=False,
        )


def schedule_round_robin_migrations(
    cluster: ClusterSystem, count: int, horizon: Time
) -> list[MigrationRecord]:
    """Schedule ``count`` key handoffs over ``horizon``; return their records.

    Keys round-robin; each hops one shard over (wrapping adds a hop so
    repeats of the same key keep moving); starts spread over
    [0.15, 0.55] of the horizon and retries capped at one so even a
    handoff that times out every phase under total migration-message
    loss still resolves — commit or clean abort, never a record left
    mid-phase at the horizon.
    """
    shards = len(cluster.shards)
    records = []
    for j in range(count):
        key = cluster.keys[j % len(cluster.keys)]
        hop = 1 + j // len(cluster.keys)
        dest = (cluster.shard_of(key) + hop) % shards
        if dest == cluster.shard_of(key):
            dest = (dest + 1) % shards
        start = horizon * (0.15 + 0.4 * j / count)
        records.append(cluster.schedule_migration(key, dest, at=start, max_retries=1))
    return records


def _run_cluster_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """The sharded flavour of one explorer cell.

    Same workload shape and verdict logic as the single-population
    path, but the population is split over ``spec.shards`` independent
    quorum groups, traffic is spread by *shard* skew (``key_dist``
    picks the shard distribution — ``zipf`` makes a hot shard), the
    fault plan lands on every shard (scoped into its pid namespace)
    and the merged history is judged by the cluster checkers.
    """
    from ..cluster.checker import (
        check_cluster_liveness,
        check_cluster_safety,
        find_cluster_inversions,
    )
    from ..cluster.config import ClusterConfig
    from ..cluster.history import cluster_digest
    from ..cluster.system import ClusterSystem
    from .cluster import ClusterWorkloadDriver, shard_skewed_key_picker

    plan = spec.plan
    cluster = ClusterSystem(
        ClusterConfig(
            shards=spec.shards,
            keys=spec.keys,
            n=spec.n,
            delta=spec.delta,
            protocol=spec.protocol,
            delay=spec.delay,
            seed=spec.seed,
            trace=False,
        )
    )
    if not plan.is_empty:
        install_shard_scoped(cluster, plan)
    if spec.churn_rate > 0:
        cluster.attach_churn(rate=spec.churn_rate, min_stay=3.0 * spec.delta)
    schedule_round_robin_migrations(cluster, spec.migrations, spec.horizon)
    # Migrating (and rebalanced) cells need fire-time routing (a write
    # landing after a flip must reach the new owner); static cells keep
    # the recorded install-time split byte for byte.
    driver = ClusterWorkloadDriver(
        cluster, dynamic=bool(spec.migrations or spec.rebalance)
    )
    if spec.rebalance:
        from ..cluster.rebalance import RebalancePolicy, Rebalancer

        # A deliberately trigger-happy policy: tick every 3 delta,
        # react to mild skew, plan up to ``spec.rebalance`` handoffs
        # per window — the concurrent-storm shape — and stop planning
        # past 55% of the horizon so the timeout ladders of the last
        # batch (one retry per phase) can resolve before the run ends.
        Rebalancer(
            cluster,
            driver=driver,
            policy=RebalancePolicy(
                period=3.0 * spec.delta,
                threshold=1.2,
                budget=spec.rebalance,
                max_retries=1,
                plan_until=spec.horizon * 0.55,
            ),
        )
    workload = read_heavy_plan(
        start=5.0,
        end=max(6.0, spec.horizon - 4.0 * spec.delta),
        write_period=spec.write_period,
        read_rate=spec.read_rate,
        rng=cluster.rng.stream("explorer.plan"),
    )
    workload = assign_keys(
        workload,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream("explorer.shards"), distribution=spec.key_dist
        ),
    )
    driver.install(workload)
    cluster.run_until(spec.horizon)
    history = cluster.close()
    stats = driver.stats
    # All handoffs the run scheduled — the fixed `migrations` axis plus
    # anything a rebalancer planned from observed load.
    all_records = cluster.migration_records()
    return _build_outcome(
        spec,
        check_cluster_safety(history),
        find_cluster_inversions(history),
        check_cluster_liveness(history, grace=10.0 * spec.delta),
        classify_scenario(spec, make_delay(spec.delay, spec.delta).known_bound),
        digest=cluster_digest(history),
        fault_counters=cluster.fault_counters(),
        network_counters={
            "sent": cluster.sent_count,
            "delivered": cluster.delivered_count,
            "dropped": cluster.dropped_count,
            "faulted": cluster.faulted_count,
        },
        reads_issued=stats.reads_issued,
        writes_issued=stats.writes_issued,
        quiesced=cluster.engine.next_event_time() is None,
        migrations_committed=sum(1 for r in all_records if r.committed),
        migrations_aborted=sum(1 for r in all_records if r.aborted),
        migrations_planned=len(all_records),
    )


# ----------------------------------------------------------------------
# Shrinking: minimal violating fault schedules
# ----------------------------------------------------------------------


def _still_violates(spec: ScenarioSpec, plan: FaultPlan) -> bool:
    return not run_scenario(replace(spec, plan=plan)).safe


def _window_halves(fault: Fault, horizon: Time) -> list[Fault]:
    """The two half-window restrictions of a windowed fault (or [])."""
    if isinstance(fault, CrashFault):
        return []
    start = fault.start
    end = fault.end if fault.end is not None else horizon
    if end - start <= 1.0:
        return []
    mid = (start + end) / 2.0
    return [
        replace(fault, start=start, end=mid),
        replace(fault, start=mid, end=end),
    ]


def shrink_plan(
    spec: ScenarioSpec, budget: int = 12
) -> tuple[FaultPlan, int]:
    """Minimize a violating spec's fault schedule.

    Two deterministic passes, both bounded by ``budget`` re-runs:
    drop whole faults while the violation persists (ddmin step), then
    bisect each survivor's time window to the smallest half that still
    violates.  Returns the shrunk plan and the number of runs spent.
    """
    faults = list(spec.plan.atomic_faults())
    name = (spec.plan.name or "plan") + "~shrunk"
    runs = 0

    # Pass 1: remove whole faults — down to the *empty* plan, which is
    # reachable when the violation never needed the faults at all (an
    # empty shrunk plan in a report means exactly that).
    changed = True
    while changed and faults and runs < budget:
        changed = False
        for index in range(len(faults)):
            if runs >= budget:
                break
            candidate = FaultPlan.of(
                *(faults[:index] + faults[index + 1 :]), name=name
            )
            runs += 1
            if _still_violates(spec, candidate):
                faults = list(candidate.atomic_faults())
                changed = True
                break

    # Pass 2: bisect each surviving fault's schedule window.
    for index, fault in enumerate(list(faults)):
        narrowed = fault
        while runs < budget:
            halves = _window_halves(narrowed, spec.horizon)
            if not halves:
                break
            adopted = None
            for half in halves:
                if runs >= budget:
                    break
                candidate_faults = list(faults)
                candidate_faults[index] = half
                runs += 1
                if _still_violates(spec, FaultPlan.of(*candidate_faults, name=name)):
                    adopted = half
                    break
            if adopted is None:
                break
            narrowed = adopted
            faults[index] = narrowed

    return FaultPlan.of(*faults, name=name), runs


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


@dataclass
class ExplorationReport:
    """Every outcome of one exploration, plus the derived artifact."""

    root_seed: int
    budget: int
    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    shrink_runs: int = 0
    skipped_cells: int = 0  # matrix cells beyond the budget, never run

    @property
    def bugs(self) -> list[ScenarioOutcome]:
        return [
            o
            for o in self.outcomes
            if o.verdict == VERDICT_BUG or o.shrunk_verdict == VERDICT_BUG
        ]

    @property
    def breakages(self) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if o.verdict == VERDICT_BREAKAGE]

    @property
    def near_misses(self) -> list[ScenarioOutcome]:
        return [o for o in self.outcomes if o.verdict == VERDICT_NEAR_MISS]

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.verdict] = tally.get(outcome.verdict, 0) + 1
        return dict(sorted(tally.items()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "artifact": "EXPLORE_report",
            "schema_version": REPORT_SCHEMA_VERSION,
            "root_seed": self.root_seed,
            "budget": self.budget,
            "counts": self.counts(),
            "skipped_cells": self.skipped_cells,
            "runs": [outcome.to_dict() for outcome in self.outcomes],
            "counterexamples": [
                outcome.to_dict()
                for outcome in self.outcomes
                if outcome.violated
            ],
            "shrink_runs_total": self.shrink_runs,
        }

    def summary(self) -> str:
        counts = self.counts()
        rendered = ", ".join(f"{k}={v}" for k, v in counts.items()) or "no runs"
        skipped = (
            f"; {self.skipped_cells} matrix cells beyond the budget NOT run"
            if self.skipped_cells
            else ""
        )
        return (
            f"explored {len(self.outcomes)} scenarios (seed {self.root_seed}): "
            f"{rendered}; {self.shrink_runs} shrink re-runs{skipped}"
        )


def scenario_matrix(
    seed: int,
    protocols: tuple[str, ...],
    delays: tuple[str, ...],
    churn_rates: tuple[float, ...],
    plan_names: tuple[str, ...],
    seeds_per_combo: int,
    n: int,
    delta: Time,
    horizon: Time,
    key_counts: tuple[int, ...] = (1,),
    key_dist: str = "uniform",
    shard_counts: tuple[int, ...] = (1,),
    migration_counts: tuple[int, ...] = (0,),
    rebalance_counts: tuple[int, ...] = (0,),
) -> Iterator[ScenarioSpec]:
    """The sweep, in deterministic order (plans vary slowest).

    ``key_counts`` is the RegisterSpace axis: each combination is run
    once per key count, the default ``(1,)`` being the classic
    single-register matrix.  ``shard_counts`` is the cluster axis:
    each (plan, protocol, delay, churn, keys) combination additionally
    runs at every shard count (1 = the classic single population).
    ``migration_counts`` is the resharding axis: cluster combinations
    additionally run with that many live key migrations; counts > 0
    are silently skipped for cells that cannot host a handoff
    (``shards < 2`` or ``keys < 2``), so a mixed sweep stays valid.
    ``rebalance_counts`` is the rebalancer axis: a per-window migration
    budget for a load-watching rebalancer riding the cell, with the
    same skip rule.
    """
    for name in plan_names:
        plan = build_plan(name, delta, horizon, n)
        for protocol in protocols:
            for delay in delays:
                for churn_rate in churn_rates:
                    for keys in key_counts:
                        for shards in shard_counts:
                            for migrations in migration_counts:
                                if migrations and (shards < 2 or keys < 2):
                                    continue
                                for rebalance in rebalance_counts:
                                    if rebalance and (shards < 2 or keys < 2):
                                        continue
                                    for offset in range(seeds_per_combo):
                                        yield ScenarioSpec(
                                            protocol=protocol,
                                            n=n,
                                            delta=delta,
                                            delay=delay,
                                            churn_rate=churn_rate,
                                            plan=plan,
                                            seed=seed + offset,
                                            horizon=horizon,
                                            keys=keys,
                                            key_dist=key_dist,
                                            shards=shards,
                                            migrations=migrations,
                                            rebalance=rebalance,
                                        )


def explore(
    budget: int = 50,
    seed: int = 0,
    protocols: tuple[str, ...] = ("sync", "es", "abd"),
    delays: tuple[str, ...] = ("sync", "es"),
    churn_rates: tuple[float, ...] = (0.0, 0.02),
    plan_names: tuple[str, ...] = DEFAULT_PLAN_NAMES,
    seeds_per_combo: int = 1,
    n: int = 10,
    delta: Time = 5.0,
    horizon: Time = 120.0,
    shrink: bool = True,
    shrink_budget: int = 12,
    workers: int | None = None,
    key_counts: tuple[int, ...] = (1,),
    key_dist: str = "uniform",
    shard_counts: tuple[int, ...] = (1,),
    migration_counts: tuple[int, ...] = (0,),
    rebalance_counts: tuple[int, ...] = (0,),
) -> ExplorationReport:
    """Sweep the matrix, judge every run, shrink every counterexample.

    ``budget`` caps the number of sweep cells actually run (the matrix
    is truncated, deterministically, never sampled); shrinking spends
    at most ``shrink_budget`` extra runs per counterexample.
    ``key_counts`` adds the RegisterSpace axis: every combination is
    additionally run with that many keys (per-key regularity judged by
    the partitioning checkers); ``key_dist`` picks how keyed workload
    operations spread over the keys (``uniform`` or ``zipf``).
    ``shard_counts`` adds the cluster axis: combinations additionally
    run as sharded clusters (``key_dist`` then skews traffic by shard
    — ``zipf`` is the hot-shard scenario), the plan lands on every
    shard and the merged history is judged; classification is
    untouched, so in-model violations of sharded cells are bugs too.
    ``migration_counts`` adds the resharding axis: cluster cells
    additionally run with that many live key migrations under the
    plan — the resharding-storm family when combined with the
    ``mig-*`` plans.  ``rebalance_counts`` adds the rebalancer axis
    (per-window migration budgets for a load-watching rebalancer) —
    the rebalancing-storm family when combined with the ``rebal-*``
    plans; classification is again untouched, so a rebalancer-induced
    violation under an in-model plan is a bug.

    The sweep itself runs through the shared execution engine:
    ``workers`` processes judge cells concurrently (default: all
    cores), outcomes are collected in matrix order, and every cell's
    randomness comes from its own spec, so the report is byte-identical
    at any worker count.  Shrinking is adaptive (each re-run depends on
    the previous verdict) and stays in-process, after the sweep.
    """
    if budget < 1:
        raise ExperimentError(f"budget must be at least 1, got {budget!r}")
    for shards in shard_counts:
        if shards < 1:
            raise ExperimentError(
                f"shard counts must be at least 1, got {shards!r}"
            )
    for delay in delays:
        if delay not in DELAY_MODEL_NAMES:
            raise ExperimentError(
                f"unknown delay model {delay!r}; choose from {DELAY_MODEL_NAMES}"
            )
    report = ExplorationReport(root_seed=seed, budget=budget)
    specs = list(
        scenario_matrix(
            seed, tuple(protocols), tuple(delays), tuple(churn_rates),
            tuple(plan_names), seeds_per_combo, n, delta, horizon,
            tuple(key_counts), key_dist, tuple(shard_counts),
            tuple(migration_counts), tuple(rebalance_counts),
        )
    )
    report.skipped_cells = max(0, len(specs) - budget)
    swept = specs[:budget]
    outcomes = run_specs(
        [
            RunSpec(kind="scenario", params=spec.to_dict(), label=spec.label())
            for spec in swept
        ],
        workers=workers,
    )
    for spec, outcome in zip(swept, outcomes):
        if outcome.violated and shrink and len(spec.plan) > 0:
            shrunk, used = shrink_plan(spec, budget=shrink_budget)
            # Re-judge the cell under the minimized plan: its (possibly
            # stricter) classification is the one the shrinker isolated.
            shrunk_outcome = run_scenario(replace(spec, plan=shrunk))
            report.shrink_runs += used + 1
            outcome = replace(
                outcome,
                shrunk_plan=shrunk,
                shrink_runs=used,
                shrunk_verdict=shrunk_outcome.verdict,
            )
        report.outcomes.append(outcome)
    return report
