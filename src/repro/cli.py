"""Command-line interface: ``python -m repro <command>``.

Seven subcommands, mirroring how the library is typically used:

``experiments``
    Run the reproduction battery (E1–E17, optionally the ablations)
    and print each table and verdict.  Each experiment's sweep runs
    through the parallel execution engine (``--workers``); tables are
    byte-identical at any worker count.

``scenario``
    Replay one of the scripted figure scenarios (``fig3a``, ``fig3b``,
    ``inversion``) with its narrative, checker verdicts and — with
    ``--timeline`` — the ASCII space-time diagram.

``simulate``
    Run an ad-hoc system (protocol, size, δ, churn, workload knobs) and
    report safety/liveness plus summary statistics.  The quickest way
    to poke at the protocols.

``bounds``
    Print the paper's analytic bounds for given δ and n: the
    synchronous cap ``1/(3δ)``, the ES cap ``1/(3δn)``, Lemma 2's
    window bound.

``migrate``
    Live-reshard a cluster: schedule key migrations between quorum
    shards mid-run (optionally under a fault plan such as ``mig-loss``
    or ``mig-storm``), print each handoff's record (phase, latency,
    deferred writes) and the merged-history checker verdicts.  Exits
    non-zero if safety broke or a handoff never resolved.

``rebalance``
    Drive one policy-driven rebalancing cell ad hoc: a Zipf hot-shard
    cluster with a rebalancer watching issued operations per shard and
    planning budget-bounded storms of concurrent handoffs (policy flags
    ``--period``, ``--threshold``, ``--migration-budget``; optionally
    retiring a shard, or running under a ``rebal-*`` fault plan),
    printing every sampling window, every planned handoff's outcome and
    the imbalance before/after.  Exits non-zero if safety broke or a
    planned handoff never resolved.

``explore``
    Sweep the adversarial scenario matrix — one flag per row of the
    explorer's sweep table (``repro.workloads.explorer.AXES``; ``repro
    explore --help`` lists them) — judge every history with the
    checkers, shrink violating fault schedules and optionally write the
    JSON counterexample report.  The sweep fans out across
    ``--workers`` processes (cells are independent; the report is
    byte-identical at any worker count).  In-model violations are bugs
    (exit 1); out-of-model ones document the paper's hypotheses
    (exit 0).

``simulate``, ``migrate`` and ``rebalance`` are the run commands: their
shared flags are the rows of one table (:data:`RUN_FLAGS`, a default
per command), and each drives its system through
:func:`~repro.workloads.generators.drive_read_heavy` on its own RNG
streams.

A bad setting — an unknown ``--plan`` / ``--plans`` name, a churn rate
outside [0, 1), a non-finite δ or horizon, a horizon the workload plan
(t = 5 to ``max(6, horizon - 4δ)``) does not fit, a negative migration
count or handoffs on one shard, a sweep with no cell — is refused by
name with exit code 2, before anything is printed.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from .churn.model import (
    eventually_synchronous_churn_bound,
    lemma2_window_lower_bound,
    synchronous_churn_bound,
)
from .experiments import EXPERIMENTS
from .experiments import run as run_experiment
from .runtime.config import SystemConfig
from .runtime.system import DynamicSystem
from .sim.errors import ReproError
from .viz.message_flow import render_message_flow
from .viz.timeline import render_timeline
from .workloads.cluster import (
    ClusterWorkloadDriver,
    install_shard_scoped,
    schedule_round_robin_migrations,
    shard_skewed_key_picker,
)
from .workloads.explorer import AXES, build_plan, explore
from .workloads.generators import drive_read_heavy, make_key_picker
from .workloads.scenarios import figure_3a, figure_3b, new_old_inversion
from .workloads.schedule import WorkloadDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster.migration import MigrationRecord
    from .cluster.system import ClusterSystem
    from .core.checker import LivenessReport, SafetyReport
    from .workloads.generators import KeyPicker

_SCENARIOS = {
    "fig3a": figure_3a,
    "fig3b": figure_3b,
    "inversion": new_old_inversion,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Implementing a Register in a "
            "Dynamic Distributed System' (ICDCS 2009)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="run the reproduction battery (E1-E17)"
    )
    experiments.add_argument(
        "--ids",
        nargs="+",
        metavar="ID",
        help="subset to run (e.g. E5 A2); default: all E-experiments",
    )
    experiments.add_argument("--quick", action="store_true")
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--ablations",
        action="store_true",
        help="include the A1-A6 ablations in the default set",
    )
    _add_workers_flag(experiments, "run each experiment's sweep cells")

    scenario = sub.add_parser("scenario", help="replay a scripted figure")
    scenario.add_argument("name", choices=sorted(_SCENARIOS))
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument(
        "--timeline", action="store_true", help="print the space-time diagram"
    )
    scenario.add_argument(
        "--messages", action="store_true", help="print the message flow"
    )

    simulate = sub.add_parser("simulate", help="run an ad-hoc system")
    simulate.add_argument(
        "--protocol", default="sync", choices=["sync", "naive", "es", "abd"]
    )
    simulate.add_argument("--timeline", action="store_true")
    _add_run_flags(simulate, "simulate")

    bounds = sub.add_parser("bounds", help="print the analytic bounds")
    bounds.add_argument("--delta", type=float, default=5.0)
    bounds.add_argument("--n", type=int, default=20)
    bounds.add_argument(
        "--churn",
        type=float,
        default=None,
        help="also evaluate Lemma 2's bound at this churn rate",
    )

    migrate = sub.add_parser(
        "migrate",
        help="live-reshard a cluster: migrate keys between shards mid-run",
    )
    migrate.add_argument(
        "--migrations",
        type=int,
        default=3,
        help="key handoffs to schedule (keys round-robin to the next shard)",
    )
    _add_run_flags(migrate, "migrate")

    rebalance = sub.add_parser(
        "rebalance",
        help="rebalance a hot-shard cluster by policy-planned migrations",
    )
    rebalance.add_argument(
        "--period",
        type=float,
        default=None,
        help="load-sampling period (default: 4 delta)",
    )
    rebalance.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="max/mean imbalance past which a batch is planned",
    )
    rebalance.add_argument(
        "--migration-budget",
        type=int,
        default=2,
        help="max handoffs planned per sampling window (the storm size cap)",
    )
    rebalance.add_argument(
        "--retire",
        type=int,
        default=None,
        metavar="SHARD",
        help="retire this shard: migrate every key off it, never move keys to it",
    )
    _add_run_flags(rebalance, "rebalance")

    explore = sub.add_parser(
        "explore", help="sweep adversarial fault scenarios and shrink violations"
    )
    explore.add_argument(
        "--budget", type=int, default=50, help="max scenario cells to run"
    )
    explore.add_argument("--seed", type=int, default=0)
    for axis in AXES:
        explore.add_argument(
            axis.flag,
            dest=axis.name,
            nargs="+" if isinstance(axis.default, tuple) else None,
            type=axis.type,
            default=axis.default,
            choices=axis.choices,
            metavar=axis.metavar,
            help=axis.help,
        )
    explore.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip minimizing violating fault schedules",
    )
    explore.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON counterexample report here",
    )
    explore.add_argument(
        "--verbose", action="store_true", help="print every run, not just violations"
    )
    _add_workers_flag(explore, "judge sweep cells")
    return parser


#: The run commands, in the column order of :data:`RUN_FLAGS`.
RUN_COMMANDS = ("simulate", "migrate", "rebalance")
#: A run flag's default where its command does not take it.
_ABSENT = object()

#: The run flags, one row each: its default in ``simulate``, ``migrate``
#: and ``rebalance`` (the default's type is the flag's type; ``False``
#: makes a switch).
RUN_FLAGS = {
    "--shards": (_ABSENT, 3, 4),
    "--keys": (1, 6, 8),
    "--n": (20, 18, 24),
    "--delta": (5.0, 5.0, 5.0),
    "--churn": (0.01, 0.02, 0.02),
    "--horizon": (200.0, 120.0, 240.0),
    "--seed": (0, 0, 0),
    "--plan": (_ABSENT, None, None),
    "--key-dist": ("uniform", _ABSENT, "zipf"),
    "--read-rate": (0.5, 0.6, 0.6),
    "--write-period": (30.0, 10.0, 10.0),
    "--paranoid": (False, False, False),
}
#: What a run flag declares beyond its default.
_RUN_FLAG_OPTIONS = {
    "--keys": dict(help="register-space key count (1: the classic single register)"),
    "--plan": dict(
        metavar="PLAN",
        help="fault plan from the explorer library to run under, scoped into "
        "every shard (e.g. mig-loss, mig-storm, rebal-crash, rebal-storm)",
    ),
    "--key-dist": dict(
        choices=("uniform", "zipf"),
        help="how operations spread over the keys (rebalance: over the "
        "shards; zipf = a hot shard)",
    ),
    "--paranoid": dict(
        help="judge the history with the brute-force reference checkers"
    ),
}


def _add_run_flags(sub: argparse.ArgumentParser, command: str) -> None:
    """Declare the :data:`RUN_FLAGS` ``command`` takes on ``sub``."""
    column = RUN_COMMANDS.index(command)
    for flag, defaults in RUN_FLAGS.items():
        default, options = defaults[column], _RUN_FLAG_OPTIONS.get(flag, {})
        if default is False:
            sub.add_argument(flag, action="store_true", **options)
        elif default is not _ABSENT:
            kind = None if default is None else type(default)
            sub.add_argument(flag, type=kind, default=default, **options)


def _add_workers_flag(sub: argparse.ArgumentParser, doing: str) -> None:
    """The shared ``--workers`` flag of the parallel execution engine."""
    from .exec.runner import default_workers

    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            f"processes used to {doing} (default: all cores, "
            f"{default_workers()} here); output is byte-identical "
            f"at any worker count"
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "experiments":
            return _cmd_experiments(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "migrate":
            return _cmd_migrate(args)
        if args.command == "rebalance":
            return _cmd_rebalance(args)
        if args.command == "explore":
            return _cmd_explore(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.ids:
        unknown = [i for i in args.ids if i not in EXPERIMENTS]
        if unknown:
            print(
                f"error: unknown experiment id(s) {', '.join(unknown)}; "
                f"known: {', '.join(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
        selected = list(dict.fromkeys(args.ids))
    else:
        selected = [i for i in EXPERIMENTS if args.ablations or i.startswith("E")]
    failures = []
    for experiment_id in selected:
        result = run_experiment(
            EXPERIMENTS[experiment_id],
            seed=args.seed,
            quick=args.quick,
            workers=args.workers,
        )
        print(result.describe())
        print()
        if not result.verdict.startswith("REPRODUCED"):
            failures.append(experiment_id)
    if failures:
        print(f"NOT REPRODUCED: {', '.join(failures)}")
        return 1
    print(f"all {len(selected)} experiments reproduced")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    scenario = _SCENARIOS[args.name](seed=args.seed)
    print(scenario.describe())
    if args.timeline:
        print(f"\n{render_timeline(scenario.system, width=76)}")
    if args.messages:
        print(f"\n{render_message_flow(scenario.system.trace)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SystemConfig(
        n=args.n,
        delta=args.delta,
        protocol=args.protocol,
        seed=args.seed,
        trace=args.timeline,
        keys=args.keys,
    )
    system = DynamicSystem(config)
    if args.churn:
        system.attach_churn(rate=args.churn, min_stay=3.0 * args.delta)
    driver = WorkloadDriver(system)
    pick_key = (
        make_key_picker(args.key_dist, system.keys, system.rng.stream("cli.keys"))
        if args.keys > 1
        else None
    )
    safety, liveness = _drive_and_judge(args, system, driver, "cli.plan", pick_key)
    keyed = f" keys={args.keys}/{args.key_dist}" if args.keys > 1 else ""
    print(
        f"protocol={args.protocol} n={args.n} δ={args.delta} "
        f"churn={args.churn} horizon={args.horizon} seed={args.seed}{keyed}"
    )
    print(f"reads issued   : {driver.stats.reads_issued} "
          f"(skipped {driver.stats.reads_skipped})")
    print(f"writes issued  : {driver.stats.writes_issued} "
          f"(skipped {driver.stats.writes_skipped})")
    joins = system.history.joins()
    print(f"joins          : {len(joins)} started, "
          f"{sum(1 for j in joins if j.done)} completed")
    print(safety.summary())
    print(liveness.summary())
    if args.timeline:
        pids = [p.pid for p in system.membership.processes()][:25]
        print(f"\n{render_timeline(system, width=76, pids=pids)}")
    return 0 if (safety.is_safe and liveness.is_live) else 1


def _cluster_cell(args: argparse.Namespace) -> ClusterSystem:
    """The cluster ``migrate`` and ``rebalance`` both start from: built
    from the shared flags, the library ``--plan`` (if any) scoped into
    every shard, churn attached."""
    from .cluster.config import ClusterConfig
    from .cluster.system import ClusterSystem

    cluster = ClusterSystem(
        ClusterConfig(
            shards=args.shards,
            keys=args.keys,
            n=args.n,
            delta=args.delta,
            protocol="sync",
            seed=args.seed,
        )
    )
    if args.plan is not None:
        install_shard_scoped(
            cluster, build_plan(args.plan, args.delta, args.horizon, args.n)
        )
    if args.churn:
        cluster.attach_churn(rate=args.churn, min_stay=3.0 * args.delta)
    return cluster


def _drive_and_judge(
    args: argparse.Namespace,
    system: DynamicSystem | ClusterSystem,
    driver: WorkloadDriver | ClusterWorkloadDriver,
    stream: str,
    pick_key: KeyPicker | None,
) -> tuple[SafetyReport, LivenessReport]:
    """Run ``system`` under the read-heavy plan the run flags shape (RNG
    stream ``stream``), close it and judge it."""
    drive_read_heavy(
        system, driver, args.horizon, max(6.0, args.horizon - 4.0 * args.delta),
        args.write_period, args.read_rate, stream, pick_key,
    )
    return (
        system.check_safety(paranoid=args.paranoid),
        system.check_liveness(grace=10.0 * args.delta),
    )


def _handoff_outcome(record: MigrationRecord) -> str:
    if record.committed:
        return f"committed in {record.latency:.1f} (v{record.map_version})"
    if record.aborted:
        return f"aborted ({record.reason})"
    return f"UNRESOLVED (phase={record.phase})"


def _cmd_migrate(args: argparse.Namespace) -> int:
    cluster = _cluster_cell(args)
    records = schedule_round_robin_migrations(cluster, args.migrations, args.horizon)
    driver = ClusterWorkloadDriver(cluster)
    pick_key = shard_skewed_key_picker(
        cluster, cluster.rng.stream("cli.migrate.keys"), "uniform"
    )
    safety, liveness = _drive_and_judge(
        args, cluster, driver, "cli.migrate.plan", pick_key
    )
    plan_label = f" plan={args.plan}" if args.plan else ""
    print(
        f"shards={args.shards} keys={args.keys} n={args.n} δ={args.delta} "
        f"churn={args.churn} horizon={args.horizon} seed={args.seed}{plan_label}"
    )
    for record in records:
        print(
            f"  {record.key}: shard {record.source} -> {record.dest} "
            f"@{record.scheduled_at:g}  {_handoff_outcome(record)}"
            + (f", {record.deferred_writes} write(s) deferred"
               if record.deferred_writes else "")
            + (f", {record.retries} retry(ies)" if record.retries else "")
        )
    stats = driver.stats
    print(f"reads issued   : {stats.reads_issued} (skipped {stats.reads_skipped})")
    print(
        f"writes issued  : {stats.writes_issued} "
        f"(deferred {stats.writes_deferred + sum(r.deferred_writes for r in records)}, "
        f"dropped {cluster.writes_dropped})"
    )
    print(safety.summary())
    print(liveness.summary())
    all_resolved = all(r.finished for r in records)
    if not all_resolved:
        print("STUCK HANDOFF: a migration never resolved — this is a bug")
    return 0 if (safety.is_safe and all_resolved) else 1


def _cmd_rebalance(args: argparse.Namespace) -> int:
    from .cluster.rebalance import RebalancePolicy, Rebalancer

    cluster = _cluster_cell(args)
    driver = ClusterWorkloadDriver(cluster)
    policy = RebalancePolicy(
        period=args.period if args.period is not None else 4.0 * args.delta,
        threshold=args.threshold,
        budget=args.migration_budget,
        max_retries=1,
        plan_until=args.horizon - 18.0 * args.delta,
    )
    rebalancer = Rebalancer(cluster, driver=driver, policy=policy)
    if args.retire is not None:
        rebalancer.retire_shard(args.retire)
    pick_key = shard_skewed_key_picker(
        cluster, cluster.rng.stream("cli.rebalance.keys"), args.key_dist
    )
    safety, liveness = _drive_and_judge(
        args, cluster, driver, "cli.rebalance.plan", pick_key
    )
    plan_label = f" plan={args.plan}" if args.plan else ""
    retire_label = f" retire={args.retire}" if args.retire is not None else ""
    print(
        f"shards={args.shards} keys={args.keys} n={args.n} δ={args.delta} "
        f"churn={args.churn} horizon={args.horizon} seed={args.seed}"
        f"{plan_label}{retire_label}"
    )
    print(
        f"policy         : period={policy.period:g} threshold={policy.threshold:g} "
        f"budget={policy.budget}"
    )
    for sample in rebalancer.samples:
        flag = f" planned {sample.planned}" if sample.planned else ""
        note = f" [{sample.note}]" if sample.note else ""
        print(
            f"  t={sample.time:6.1f}  loads={tuple(sample.loads)}  "
            f"imbalance={sample.imbalance:.3f}{flag}{note}"
        )
    for action in rebalancer.actions:
        print(
            f"  {action.key}: shard {action.source} -> {action.dest} "
            f"@{action.time:g} [{action.reason}]  {_handoff_outcome(action.record)}"
        )
    ops = driver.shard_op_counts()
    print(f"shard ops      : {tuple(ops)}")
    print(f"imbalance      : {Rebalancer.imbalance_of(ops):.3f} (max/mean, cumulative)")
    stats = driver.stats
    print(f"reads issued   : {stats.reads_issued} (skipped {stats.reads_skipped})")
    print(
        f"writes issued  : {stats.writes_issued} "
        f"(deferred {cluster.writes_deferred}, dropped {cluster.writes_dropped})"
    )
    summary = rebalancer.summary()
    print(
        f"handoffs       : {summary['planned']} planned, "
        f"{summary['committed']} committed, {summary['aborted']} aborted, "
        f"{summary['unresolved']} unresolved"
    )
    print(safety.summary())
    print(liveness.summary())
    all_resolved = summary["unresolved"] == 0
    if not all_resolved:
        print("STUCK HANDOFF: a planned migration never resolved — this is a bug")
    return 0 if (safety.is_safe and all_resolved) else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    import json

    report = explore(
        budget=args.budget,
        seed=args.seed,
        shrink=not args.no_shrink,
        workers=args.workers,
        **{axis.name: getattr(args, axis.name) for axis in AXES},
    )
    for outcome in report.outcomes:
        if args.verbose or outcome.violated:
            print(outcome.summary())
            if outcome.shrunk_plan is not None:
                print(f"    shrunk to {outcome.shrunk_plan.describe()}")
                if outcome.shrunk_verdict == "bug":
                    print(
                        "    ESCALATED: the minimized fault schedule is "
                        "in-model — this is a bug"
                    )
            for reason in outcome.classification.reasons:
                if outcome.violated:
                    print(f"    out-of-model: {reason}")
    print(report.summary())
    if args.out is not None:
        try:
            with open(args.out, "w") as handle:
                json.dump(report.to_dict(), handle, indent=2)
                handle.write("\n")
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    bugs = report.bugs
    if bugs:
        print(f"IN-MODEL BUGS: {len(bugs)} violating scenario(s) — see above")
        return 1
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    sync_cap = synchronous_churn_bound(args.delta)
    es_cap = eventually_synchronous_churn_bound(args.delta, args.n)
    print(f"δ = {args.delta}, n = {args.n}")
    print(f"synchronous churn cap   1/(3δ)  = {sync_cap:.6f}")
    print(f"eventually-sync cap     1/(3δn) = {es_cap:.6f}")
    print(f"majority quorum         ⌊n/2⌋+1 = {args.n // 2 + 1}")
    if args.churn is not None:
        bound = lemma2_window_lower_bound(args.n, args.churn, args.delta)
        print(
            f"Lemma 2 window bound    n(1−3δc) = {bound:.2f} "
            f"at c = {args.churn} ({args.churn / sync_cap:.0%} of the cap)"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
