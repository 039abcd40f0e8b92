"""Adversarial scenario explorer: sweep, check, shrink, report.

A FoundationDB/Jepsen-style deterministic simulation-testing loop over
the register protocols: enumerate the matrix the sweep table
:data:`AXES` declares over the fault-plan library :data:`PLANS`, run
every cell under the seeded fault injector, judge each closed history
with the regularity / atomicity / liveness checkers, and shrink any
violating run's fault
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

``repro explore`` runs it from the command line: exit 1 on a ``bug``,
exit 0 when every violation is out-of-model.  Two tables define what it
sweeps:

* :data:`PLANS` — the fault-plan library: plan name → its faults, built
  from (δ, horizon, n).  The default sweep (:data:`DEFAULT_PLAN_NAMES`)
  is the eight plans not prefixed ``mig-`` / ``rebal-``; those two
  families attack key handoffs and pair with the ``migrations`` /
  ``rebalance`` axes (``mig-loss`` and ``rebal-loss``, ``mig-storm``
  and ``rebal-storm`` are one construction each).
* :data:`AXES` — the sweep table: one row per :class:`ScenarioSpec`
  field, with its ``repro explore`` flag, default and help.  Swept rows
  multiply in the order plan, protocol, delay, churn rate, keys,
  shards, migrations, rebalance, seed (plans slowest); ``n``,
  ``delta``, ``horizon`` and ``key_dist`` are shared by every cell.
  :func:`scenario_matrix`, ``explore(**axes)`` and the CLI's flags all
  read it; a cell asking for handoffs without shards ≥ 2 and keys ≥ 2
  is skipped.

Every cell — one population or a sharded cluster — runs through the
one :func:`run_scenario` body.  A bad setting is refused by name, and
by the CLI with exit 2 before anything is printed: an unknown plan, a
churn rate outside [0, 1), a non-finite or non-positive δ or horizon,
a horizon the workload plan does not fit (it ends at max(6, horizon −
4δ)), a sweep left with no cell.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from ..cluster.config import ClusterConfig
from ..cluster.history import cluster_digest
from ..cluster.rebalance import RebalancePolicy, Rebalancer
from ..cluster.system import ClusterSystem
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
from ..protocols import PROTOCOLS
from ..protocols.common import MIGRATION_PAYLOADS
from ..runtime.assembly import split_population
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from ..sim.clock import Time
from ..sim.errors import ExperimentError
from .cluster import (
    install_shard_scoped,
    schedule_round_robin_migrations,
    shard_skewed_key_picker,
)
from .generators import drive_read_heavy, make_key_picker
from .schedule import WorkloadDriver

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

#: Reply-style payloads per protocol (sync, es, abd) — the messages the
#: light-loss plan may eat without touching the dissemination itself.
REPLY_PAYLOADS = frozenset({"Reply", "EsReply", "EsAck", "AbdQueryReply", "AbdAck"})

#: Dissemination-style payloads per protocol — the writer-crash trigger.
WRITE_PAYLOADS = frozenset({"WriteMsg", "EsWrite", "AbdWrite"})

#: A library plan's faults, built from the scenario's (δ, horizon, n).
PlanFaults = Callable[[Time, Time, int], tuple[Fault, ...]]


def _fixed(*faults: Fault) -> PlanFaults:
    """A plan whose faults do not depend on the scenario's dimensions."""
    return lambda delta, horizon, n: faults


def _seed_cut(
    delta: Time, horizon: Time, n: int, length: float, mode: str
) -> PartitionFault:
    """Cut the first third of the seeds off for ``length`` δ from 0.3·horizon."""
    start = horizon * 0.3
    return PartitionFault(
        start=start, end=start + length * delta, group_a=_seed_group(n), mode=mode
    )


# Crash whichever node a MigFetchReply is delivered to — that is the
# source shard's migration agent, mid-copy.  The handoff must abort
# cleanly (ownership stays at the source), so a violation here is a
# bug: crashes are ordinary in-model departures.
_CRASH_MID_COPY = CrashFault(phase="MigFetchReply", victim="dest")

# Crash a destination replica at its second MigInstall delivery —
# mid-install, after some replicas already staged the value.  The
# coordinator must either reach full present-pid coverage (the victim
# departed, so it no longer counts) and commit, or abort with the
# source still owning the key.
_CRASH_MID_INSTALL = CrashFault(phase="MigInstall", victim="dest", occurrence=2)

# Eat *every* migration message, under hand-scheduled handoffs or a
# rebalancer's storms of concurrent ones.  The handoff can never finish
# — but losing coordination traffic is in-model for the register itself
# (classify_scenario filters migration-only losses), so every handoff
# must time out, abort cleanly and keep serving from the source: a
# violation here is a bug.
_COORDINATION_LOSS = _fixed(
    LossFault(probability=1.0, payload_types=MIGRATION_PAYLOADS)
)

# The handoff storm, under hand-scheduled handoffs or continuous
# rebalancing: heavy loss on *all* traffic plus crashes at both handoff
# phases.  Out-of-model (the loss soaks dissemination too), so
# violations document the boundary, not refute a lemma.
_HANDOFF_STORM = _fixed(
    LossFault(probability=0.35),
    _CRASH_MID_COPY,
    CrashFault(phase="MigInstall", victim="dest"),
)

#: The library: plan name → its faults.  Corpus specs and sweep labels
#: carry these names.  The ``mig-*`` plans attack hand-scheduled
#: handoffs (the ``migrations`` axis), the ``rebal-*`` plans the same
#: phases under a rebalancer (the ``rebalance`` axis).
PLANS: dict[str, PlanFaults] = {
    "none": _fixed(),
    # Below the cover threshold and confined to reply/ack traffic: the
    # dissemination itself stays reliable, so safety should survive.
    "light-loss": _fixed(LossFault(probability=0.05, payload_types=REPLY_PAYLOADS)),
    "heavy-loss": _fixed(LossFault(probability=0.35)),
    # Shorter than delta and defer-mode: every crossing message still
    # meets the synchronous bound, so the run stays in-model.
    "partition-defer": lambda delta, horizon, n: (
        _seed_cut(delta, horizon, n, 0.8, "defer"),
    ),
    "partition-drop": lambda delta, horizon, n: (
        _seed_cut(delta, horizon, n, 3.0, "drop"),
    ),
    "delay-spike": lambda delta, horizon, n: (
        DelaySpikeFault(start=horizon * 0.4, end=horizon * 0.4 + 2.0 * delta, factor=4.0),
    ),
    # The writer departs the instant its third WRITE dissemination
    # lands somewhere — the Figure 3(a) flavour of departure.  One
    # crash fault per protocol's write payload; at most one can ever
    # fire (a run speaks a single protocol).
    "writer-crash": _fixed(
        *(
            CrashFault(phase=phase, victim="sender", occurrence=3)
            for phase in sorted(WRITE_PAYLOADS)
        )
    ),
    # Deliberately over-provisioned; the shrinker's job is to find
    # which ingredient actually breaks the run.
    "combo": lambda delta, horizon, n: (
        LossFault(probability=0.25, start=horizon * 0.1),
        _seed_cut(delta, horizon, n, 3.0, "drop"),
        DelaySpikeFault(start=horizon * 0.6, end=horizon * 0.6 + 2.0 * delta, factor=3.0),
    ),
    "mig-crash-copy": _fixed(_CRASH_MID_COPY),
    "mig-crash-install": _fixed(_CRASH_MID_INSTALL),
    "mig-loss": _COORDINATION_LOSS,
    "mig-storm": _HANDOFF_STORM,
    "rebal-loss": _COORDINATION_LOSS,
    # Both agent crashes while the rebalancer keeps planning fresh
    # batches — in-model departures, so safety must survive every storm.
    "rebal-crash": _fixed(_CRASH_MID_COPY, _CRASH_MID_INSTALL),
    "rebal-storm": _HANDOFF_STORM,
}

#: The default sweep leaves out the ``mig-*`` and ``rebal-*`` plans:
#: they only bite when the cell hands keys off, and keeping them out
#: preserves the recorded default-matrix order byte for byte.
DEFAULT_PLAN_NAMES = tuple(
    name for name in PLANS if not name.startswith(("mig-", "rebal-"))
)


def build_plan(name: str, delta: Time, horizon: Time, n: int) -> FaultPlan:
    """Instantiate a library plan for the given scenario dimensions."""
    try:
        faults = PLANS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown fault plan {name!r}; choose from {sorted(PLANS)}"
        ) from None
    return FaultPlan.of(*faults(delta, horizon, n), name=name)


# ----------------------------------------------------------------------
# One scenario
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to replay one explorer cell exactly.

    A swept field means what its row of :data:`AXES` says.  One key,
    one shard and no handoffs is the classic cell, byte-identical to
    the explorer before those axes existed — which is why the recorded
    corpus replays unchanged.  A bad spec is refused when it is built.
    """

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
    keys: int = 1
    key_dist: str = "uniform"
    shards: int = 1
    migrations: int = 0
    rebalance: int = 0

    def __post_init__(self) -> None:
        for name in ("delta", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ExperimentError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        if self.delay not in DELAY_MODEL_NAMES:
            raise ExperimentError(
                f"unknown delay model {self.delay!r}; choose from {DELAY_MODEL_NAMES}"
            )
        if self.shards < 1:
            raise ExperimentError(f"shards must be at least 1, got {self.shards!r}")
        for name in ("migrations", "rebalance"):
            value = getattr(self, name)
            if value < 0:
                raise ExperimentError(f"{name} must be non-negative, got {value!r}")
            if value and (self.shards < 2 or self.keys < 2):
                raise ExperimentError(
                    f"{name}={value} needs somewhere to move keys: it requires "
                    f"shards >= 2 and keys >= 2, got shards={self.shards} "
                    f"keys={self.keys}"
                )

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
        # ``migrations`` and ``rebalance`` are only emitted when set, so
        # pre-resharding spec dicts (and the recorded corpus) stay
        # byte-identical.
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("migrations", "rebalance") or getattr(self, f.name)
        }
        payload["plan"] = self.plan.to_dict()
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


def scenario_cell(**params: Any) -> ScenarioOutcome:
    """Execution-engine cell: a ``ScenarioSpec`` as plain parameters.

    Its kind is ``"repro.workloads.explorer:scenario_cell"``; the params
    are exactly ``ScenarioSpec.to_dict()``, so a spec round-trips
    through JSON artifacts, the seed corpus and the worker pool without
    carrying code.
    """
    return run_scenario(ScenarioSpec.from_dict(params))


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Run one cell of the matrix and judge its history.

    ``shards == 1`` runs one population with the plan in its config.
    ``shards > 1`` runs a :class:`~repro.cluster.system.ClusterSystem`:
    the plan scoped into every shard (:func:`install_shard_scoped`),
    ``key_dist`` skewing traffic by *shard* (``zipf`` makes a hot
    shard), the cell's handoffs riding the run, and the merged history
    judged by the cluster checkers.  Both schedule in one order —
    faults, churn, migrations, rebalancer, plan — and share the one
    driver, the workload shape and the verdict rule: a regularity violation is a
    bug in-model and expected breakage out-of-model; a safe run where
    any fault actually fired is a near-miss; otherwise ok.
    """
    plan, sharded = spec.plan, spec.shards > 1
    delay = make_delay(spec.delay, spec.delta)
    if sharded:
        digest = cluster_digest
        config = ClusterConfig(
            shards=spec.shards, keys=spec.keys, n=spec.n, delta=spec.delta,
            protocol=spec.protocol, delay=spec.delay, seed=spec.seed, trace=False,
        )
        system = ClusterSystem(config)
        if not plan.is_empty:
            install_shard_scoped(system, plan)
    else:
        digest = operation_digest
        config = SystemConfig(
            n=spec.n, delta=spec.delta, protocol=spec.protocol, delay=delay,
            seed=spec.seed, trace=False, keys=spec.keys,
            faults=None if plan.is_empty else plan,
        )
        system = DynamicSystem(config)
    if spec.churn_rate:
        system.attach_churn(rate=spec.churn_rate, min_stay=3.0 * spec.delta)
    driver = WorkloadDriver(system)
    if sharded:
        schedule_round_robin_migrations(system, spec.migrations, spec.horizon)
        if spec.rebalance:
            # A deliberately trigger-happy policy: tick every 3 delta,
            # react to mild skew, plan up to ``spec.rebalance`` handoffs
            # per window — the concurrent-storm shape — and stop planning
            # past 55% of the horizon so the timeout ladders of the last
            # batch (one retry per phase) can resolve before the run ends.
            policy = RebalancePolicy(
                period=3.0 * spec.delta, threshold=1.2, budget=spec.rebalance,
                max_retries=1, plan_until=spec.horizon * 0.55,
            )
            Rebalancer(system, driver=driver, policy=policy)
        pick_key = shard_skewed_key_picker(
            system, system.rng.stream("explorer.shards"), distribution=spec.key_dist
        )
    else:
        # Key assignment draws from its own stream, so a keys=1 cell
        # stays byte-identical to the pre-RegisterSpace explorer.
        pick_key = (
            make_key_picker(spec.key_dist, system.keys, system.rng.stream("explorer.keys"))
            if spec.keys > 1
            else None
        )
    history = drive_read_heavy(
        system, driver, spec.horizon, max(6.0, spec.horizon - 4.0 * spec.delta),
        spec.write_period, spec.read_rate, "explorer.plan", pick_key,
    )
    safety = system.check_safety()
    atomicity = system.check_atomicity()
    liveness = system.check_liveness(grace=10.0 * spec.delta)
    fault_counters = system.fault_counters()
    # Every handoff the run scheduled — the fixed `migrations` axis
    # plus anything a rebalancer planned from observed load.
    records = system.migration_records()
    classification = classify_scenario(spec, delay.known_bound)
    if not safety.is_safe:
        verdict = VERDICT_BUG if classification.in_model else VERDICT_BREAKAGE
    elif any(fault_counters.get(key, 0) for key in FAULT_FIRED_COUNTERS):
        verdict = VERDICT_NEAR_MISS
    else:
        verdict = VERDICT_OK
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
        digest=digest(history),
        fault_counters=fault_counters,
        network_counters={
            name: sum(getattr(s.network, f"{name}_count") for s in system.shards)
            for name in ("sent", "delivered", "dropped", "faulted")
        },
        reads_issued=driver.stats.reads_issued,
        writes_issued=driver.stats.writes_issued,
        quiesced=system.engine.next_event_time() is None,
        migrations_committed=sum(1 for r in records if r.committed),
        migrations_aborted=sum(1 for r in records if r.aborted),
        migrations_planned=len(records),
        first_violation=(
            safety.violations[0].explanation if safety.violations else None
        ),
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



@dataclass(frozen=True)
class Axis:
    """One row of the sweep table: a :class:`ScenarioSpec` field, what
    :func:`explore` sweeps when the row is not set, and the
    ``repro explore`` flag that sets it."""

    field: str
    flag: str
    default: Any
    help: str
    type: Callable[[str], Any] = str
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    #: ``False`` for a setting every cell shares (one value, no axis).
    swept: bool = True
    #: The :func:`explore` keyword (and the CLI's ``dest``) when it is
    #: not the field name.
    keyword: str | None = None

    @property
    def name(self) -> str:
        return self.keyword or self.field


#: The sweep table.  Swept rows multiply the matrix in this order —
#: the first varies slowest, the seed fastest; the rest set one value
#: every cell shares.  A row with a tuple default takes a list of values
#: on the command line.
AXES = (
    Axis(
        "plan", "--plans", DEFAULT_PLAN_NAMES,
        f"fault plans to sweep (default: the {len(DEFAULT_PLAN_NAMES)} library "
        f"plans not prefixed mig- or rebal-, of {len(PLANS)})",
        metavar="PLAN",
    ),
    Axis("protocol", "--protocols", ("sync", "es", "abd"), "register protocols to sweep",
         choices=tuple(PROTOCOLS)),
    Axis("delay", "--delays", ("sync", "es"), "delay models to sweep",
         choices=DELAY_MODEL_NAMES),
    Axis("churn_rate", "--churn", (0.0, 0.02), "churn rates to sweep, each in [0, 1)",
         type=float, metavar="RATE"),
    Axis(
        "keys", "--keys", (1,),
        "register-space key counts to sweep (default: just 1, the classic "
        "single register; keyed cells are judged per key)",
        type=int, metavar="K",
    ),
    Axis(
        "shards", "--shards", (1,),
        "cluster shard counts to sweep (default: just 1, the classic single "
        "population; larger counts run sharded clusters with the fault plan "
        "scoped into every shard and the merged history judged)",
        type=int, metavar="S",
    ),
    Axis(
        "migrations", "--migrations", (0,),
        "live key-migration counts to sweep (default: just 0; counts > 0 run "
        "only in cells with shards >= 2 and keys >= 2 — combine with the "
        "mig-* plans for resharding storms)",
        type=int, metavar="M",
    ),
    Axis(
        "rebalance", "--rebalance", (0,),
        "rebalancer per-window migration budgets to sweep (default: just 0 = "
        "no rebalancer; budgets > 0 run only in cells with shards >= 2 and "
        "keys >= 2 — combine with the rebal-* plans for rebalancing storms)",
        type=int, metavar="B",
    ),
    Axis("seed", "--seeds-per-combo", 1, "seeds per combination, counting up from --seed",
         type=int, keyword="seeds_per_combo"),
    Axis("n", "--n", 10, "population size of every cell", type=int, swept=False),
    Axis("delta", "--delta", 5.0, "the delay bound δ", type=float, swept=False),
    Axis("horizon", "--horizon", 120.0, "run length", type=float, swept=False),
    Axis(
        "key_dist", "--key-dist", "uniform",
        "key distribution for keyed cells (sharded cells apply it at the "
        "shard level: zipf = a hot shard)",
        choices=("uniform", "zipf"), swept=False,
    ),
)


def scenario_matrix(seed: int = 0, **settings: Any) -> list[ScenarioSpec]:
    """The sweep: the product of the swept rows of :data:`AXES`.

    ``settings`` set rows by :attr:`Axis.name` (a swept row takes its
    values, the seed row a count, a shared row one value); an unset row
    takes its default.  A cell asking for handoffs without ``shards >=
    2`` and ``keys >= 2`` is skipped, so a mixed sweep stays valid; a
    sweep left with no cell is refused, naming the row that emptied it.
    """
    unknown = sorted(settings.keys() - {axis.name for axis in AXES})
    if unknown:
        raise ExperimentError(
            f"unknown sweep axis {unknown[0]!r}; choose from "
            f"{[axis.name for axis in AXES]}"
        )
    chosen = {axis.field: settings.get(axis.name, axis.default) for axis in AXES}
    # Built first, so a bad delta or horizon is refused by name before
    # any plan is built from it.
    base = ScenarioSpec(**{a.field: chosen[a.field] for a in AXES if not a.swept})
    chosen["plan"] = [
        build_plan(name, base.delta, base.horizon, base.n) for name in chosen["plan"]
    ]
    chosen["seed"] = range(seed, seed + chosen["seed"])
    values = {axis.field: tuple(chosen[axis.field]) for axis in AXES if axis.swept}
    specs = []
    for combo in itertools.product(*values.values()):
        cell = dict(zip(values, combo))
        handoffs = cell["migrations"] or cell["rebalance"]
        if handoffs and (cell["shards"] < 2 or cell["keys"] < 2):
            continue
        specs.append(replace(base, **cell))
    if not specs:
        for axis in AXES:
            if axis.swept and not values[axis.field]:
                raise ExperimentError(
                    f"the sweep is empty: {axis.name}={settings[axis.name]!r} "
                    f"leaves nothing to sweep"
                )
        handoff = "migrations" if all(values["migrations"]) else "rebalance"
        raise ExperimentError(
            f"the sweep is empty: {handoff}={values[handoff]} needs a cell "
            f"with shards >= 2 and keys >= 2, got shards={values['shards']} "
            f"keys={values['keys']}"
        )
    return specs


def explore(
    budget: int = 50,
    seed: int = 0,
    shrink: bool = True,
    shrink_budget: int = 12,
    workers: int | None = None,
    **axes: Any,
) -> ExplorationReport:
    """Sweep the matrix, judge every run, shrink every counterexample.

    ``axes`` set rows of :data:`AXES` (see :func:`scenario_matrix`).
    ``budget`` caps the number of sweep cells actually run (the matrix
    is truncated, deterministically, never sampled); shrinking spends
    at most ``shrink_budget`` extra runs per counterexample.
    Classification ignores the sweep, so an in-model violation of any
    cell — sharded, migrating, rebalanced — is a bug.

    The sweep itself runs through the shared execution engine:
    ``workers`` processes judge cells concurrently (default: all
    cores), outcomes are collected in matrix order, and every cell's
    randomness comes from its own spec, so the report is byte-identical
    at any worker count.  Shrinking is adaptive (each re-run depends on
    the previous verdict) and stays in-process, after the sweep.
    """
    if budget < 1:
        raise ExperimentError(f"budget must be at least 1, got {budget!r}")
    specs = scenario_matrix(seed, **axes)
    report = ExplorationReport(
        root_seed=seed, budget=budget, skipped_cells=max(0, len(specs) - budget)
    )
    swept = specs[:budget]
    outcomes = run_specs(
        [
            RunSpec(f"{__name__}:scenario_cell", spec.to_dict(), spec.label())
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
