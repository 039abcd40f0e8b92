"""Command-line interface: ``python -m repro <command>``.

Eight subcommands, mirroring how the library is typically used:

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

``profile``
    Run one digest workload under ``cProfile`` and print the top-N
    frames: where the time actually went.

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

A bad setting — an unknown ``--plan`` / ``--plans`` name, a churn rate
outside [0, 1), a non-finite δ or horizon, a sweep with no cell — is
refused by name with exit code 2, before anything is printed.
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
from .workloads.generators import read_heavy_plan
from .workloads.scenarios import figure_3a, figure_3b, new_old_inversion
from .workloads.schedule import WorkloadDriver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster.migration import MigrationRecord
    from .cluster.system import ClusterSystem
    from .core.checker import LivenessReport, SafetyReport
    from .sim.trace import TraceLog

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
    simulate.add_argument("--n", type=int, default=20)
    simulate.add_argument("--delta", type=float, default=5.0)
    simulate.add_argument("--churn", type=float, default=0.01)
    simulate.add_argument("--horizon", type=float, default=200.0)
    simulate.add_argument("--read-rate", type=float, default=0.5)
    simulate.add_argument("--write-period", type=float, default=30.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--keys",
        type=int,
        default=1,
        help="register-space key count (default 1: the classic single register)",
    )
    simulate.add_argument(
        "--key-dist",
        default="uniform",
        choices=["uniform", "zipf"],
        help="how keyed operations spread over the keys",
    )
    simulate.add_argument("--timeline", action="store_true")
    simulate.add_argument(
        "--paranoid",
        action="store_true",
        help="judge the history with the brute-force reference checkers",
    )

    bounds = sub.add_parser("bounds", help="print the analytic bounds")
    bounds.add_argument("--delta", type=float, default=5.0)
    bounds.add_argument("--n", type=int, default=20)
    bounds.add_argument(
        "--churn",
        type=float,
        default=None,
        help="also evaluate Lemma 2's bound at this churn rate",
    )

    profile = sub.add_parser(
        "profile",
        help="run one digest workload under cProfile and print hot frames",
    )
    profile.add_argument(
        "workload",
        metavar="WORKLOAD",
        help=(
            "digest workload to profile (e.g. rebalance_digest; see "
            "repro.bench.DIGEST_WORKLOADS)"
        ),
    )
    profile.add_argument(
        "--top",
        type=int,
        default=25,
        help="frames to print (default 25)",
    )
    profile.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "calls"],
        help="pstats sort order (default cumulative)",
    )

    migrate = sub.add_parser(
        "migrate",
        help="live-reshard a cluster: migrate keys between shards mid-run",
    )
    migrate.add_argument("--shards", type=int, default=3)
    migrate.add_argument("--keys", type=int, default=6)
    migrate.add_argument("--n", type=int, default=18)
    migrate.add_argument("--delta", type=float, default=5.0)
    migrate.add_argument("--churn", type=float, default=0.02)
    migrate.add_argument("--horizon", type=float, default=120.0)
    migrate.add_argument(
        "--migrations",
        type=int,
        default=3,
        help="key handoffs to schedule (keys round-robin to the next shard)",
    )
    migrate.add_argument("--seed", type=int, default=0)
    migrate.add_argument(
        "--plan",
        default=None,
        metavar="PLAN",
        help=(
            "fault plan from the explorer library to run the handoffs "
            "under (e.g. mig-loss, mig-crash-install, mig-storm)"
        ),
    )
    migrate.add_argument("--read-rate", type=float, default=0.6)
    migrate.add_argument("--write-period", type=float, default=10.0)
    migrate.add_argument(
        "--paranoid",
        action="store_true",
        help="judge the merged history with the brute-force reference checkers",
    )

    rebalance = sub.add_parser(
        "rebalance",
        help="rebalance a hot-shard cluster by policy-planned migrations",
    )
    rebalance.add_argument("--shards", type=int, default=4)
    rebalance.add_argument("--keys", type=int, default=8)
    rebalance.add_argument("--n", type=int, default=24)
    rebalance.add_argument("--delta", type=float, default=5.0)
    rebalance.add_argument("--churn", type=float, default=0.02)
    rebalance.add_argument("--horizon", type=float, default=240.0)
    rebalance.add_argument("--seed", type=int, default=0)
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
    rebalance.add_argument(
        "--plan",
        default=None,
        metavar="PLAN",
        help=(
            "fault plan from the explorer library to rebalance under "
            "(e.g. rebal-loss, rebal-crash, rebal-storm)"
        ),
    )
    rebalance.add_argument(
        "--key-dist",
        default="zipf",
        choices=["uniform", "zipf"],
        help="shard-level traffic skew (zipf = a hot shard, the default)",
    )
    rebalance.add_argument("--read-rate", type=float, default=0.6)
    rebalance.add_argument("--write-period", type=float, default=10.0)
    rebalance.add_argument(
        "--paranoid",
        action="store_true",
        help="judge the merged history with the brute-force reference checkers",
    )

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
        if args.command == "profile":
            from .bench import profile_workload

            profile_workload(args.workload, top=args.top, sort=args.sort)
            return 0
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
    trace = scenario.system.trace
    if args.timeline:
        _print_view(trace, render_timeline(scenario.system, width=76))
    if args.messages:
        _print_view(trace, render_message_flow(trace))
    return 0


def _print_view(trace: TraceLog, rendering: str) -> None:
    """Print a view of ``trace``; say so on stderr if the log is cut short."""
    print()
    print(rendering)
    if trace.dropped:
        print(trace.truncation, file=sys.stderr)


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
    plan = read_heavy_plan(
        start=5.0,
        end=max(6.0, args.horizon - 4.0 * args.delta),
        write_period=args.write_period,
        read_rate=args.read_rate,
        rng=system.rng.stream("cli.plan"),
    )
    if args.keys > 1:
        from .workloads.generators import assign_keys, make_key_picker

        plan = assign_keys(
            plan,
            make_key_picker(args.key_dist, system.keys, system.rng.stream("cli.keys")),
        )
    driver.install(plan)
    system.run_until(args.horizon)
    system.close()
    safety = system.check_safety(paranoid=args.paranoid)
    liveness = system.check_liveness(grace=10.0 * args.delta)
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
        _print_view(system.trace, render_timeline(system, width=76, pids=pids))
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


def _drive_cluster_cell(
    args: argparse.Namespace,
    cluster: ClusterSystem,
    driver: ClusterWorkloadDriver,
    stream: str,
    distribution: str,
) -> tuple[SafetyReport, LivenessReport]:
    """Install the read-heavy shard-skewed plan (drawn from the
    ``cli.<stream>.*`` RNG streams), run to the horizon, close, judge."""
    from .workloads.generators import assign_keys

    plan_ops = read_heavy_plan(
        start=5.0,
        end=max(6.0, args.horizon - 4.0 * args.delta),
        write_period=args.write_period,
        read_rate=args.read_rate,
        rng=cluster.rng.stream(f"cli.{stream}.plan"),
    )
    plan_ops = assign_keys(
        plan_ops,
        shard_skewed_key_picker(
            cluster, cluster.rng.stream(f"cli.{stream}.keys"), distribution
        ),
    )
    driver.install(plan_ops)
    cluster.run_until(args.horizon)
    cluster.close()
    return (
        cluster.check_safety(paranoid=args.paranoid),
        cluster.check_liveness(grace=10.0 * args.delta),
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
    safety, liveness = _drive_cluster_cell(args, cluster, driver, "migrate", "uniform")
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
    safety, liveness = _drive_cluster_cell(
        args, cluster, driver, "rebalance", args.key_dist
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
