"""E13 — the keyed RegisterSpace: per-key regularity and join batching.

Not a figure of the paper but its production extrapolation (the
ROADMAP's north star): generalize the single regular register into a
keyed multi-register store and verify two claims on the same quorum
machinery the paper's protocols run on:

* **Per-key regularity** — under churn and a Zipf-skewed keyed
  workload, every key's sub-history is regular for each protocol
  (sync and ES under churn; the static ABD baseline without churn,
  its hypothesis), at every swept key count.
* **Batched joins** — a joiner's entry round is *batched over keys*:
  one INQUIRY broadcast and one reply per active node serve every key
  the joiner needs, so the per-join message cost does not grow with
  the key count (the join-traffic bottleneck named in the ROADMAP's
  performance notes).  The table reports messages-per-join per key
  count; the verdict requires the ratio between the largest and the
  single-key case to stay ~1.

Each (protocol × key count) cell drives the same read-heavy workload
(spread over keys by a Zipf picker — hot keys and a cold tail, the
production shape) and judges the closed history with the partitioning
checkers.
"""

from __future__ import annotations

from typing import Any

from ..exec.runner import grouped
from ..exec.spec import RunSpec
from ..runtime.config import SystemConfig
from ..runtime.system import DynamicSystem
from ..workloads.generators import assign_keys, make_key_picker, read_heavy_plan
from ..workloads.schedule import WorkloadDriver
from .harness import Experiment, Judgement

N = 20
DELTA = 5.0
#: Key counts swept (1 is the paper's single register).
KEY_COUNTS = (1, 4, 16)
#: Zipf: hot keys and a cold tail, the production shape.
KEY_DIST = "zipf"
#: Protocols exercised, in table order, with the churn each one's
#: hypotheses allow.
PROTOCOL_CHURN = {"sync": 0.02, "es": 0.004, "abd": 0.0}


def cell(
    seed: int,
    protocol: str,
    n: int,
    delta: float,
    keys: int,
    horizon: float,
    churn_rate: float,
    read_rate: float,
    write_period: float,
    key_dist: str,
) -> dict[str, Any]:
    """One (protocol, key count) run: drive, close, judge per key."""
    system = DynamicSystem(
        SystemConfig(
            n=n, delta=delta, protocol=protocol, seed=seed, trace=False, keys=keys
        )
    )
    if churn_rate > 0:
        system.attach_churn(rate=churn_rate, min_stay=3.0 * delta)
    driver = WorkloadDriver(system)
    plan = read_heavy_plan(
        start=5.0,
        end=horizon - 4.0 * delta,
        write_period=write_period,
        read_rate=read_rate,
        rng=system.rng.stream("e13.plan"),
    )
    if keys > 1:
        plan = assign_keys(
            plan,
            make_key_picker(key_dist, system.keys, system.rng.stream("e13.keys")),
        )
    driver.install(plan)
    system.run_until(horizon)
    history = system.close()
    safety = system.check_safety()
    liveness = system.check_liveness(grace=10.0 * delta)
    return {
        "reads_checked": safety.checked_count,
        "violations": safety.violation_count,
        "stuck": len(liveness.stuck),
        "joins_completed": sum(1 for j in history.joins() if j.done),
        "completed_ops": sum(1 for op in history if op.done),
        "reads_issued": driver.stats.reads_issued,
        "writes_issued": driver.stats.writes_issued,
        "join_round_msgs": _probe_join_round(protocol, n, delta, keys, seed),
    }


def _probe_join_round(
    protocol: str, n: int, delta: float, keys: int, seed: int
) -> int:
    """The isolated message cost of one joiner's entry round.

    A dedicated quiet system (no workload, no churn) admits exactly one
    joiner and counts the point-to-point sends its entry round causes —
    replies, acks, DL_PREVs; the inquiry broadcast itself rides the
    broadcast service, not ``Network.send_payload``.  This is the direct
    measurement behind the batched-join claim: in the main run the
    whole-run traffic is dominated by reads (ES) or has no joins at all
    (ABD), so only an isolated probe can pin per-join cost against the
    key count.
    """
    probe = DynamicSystem(
        SystemConfig(
            n=n, delta=delta, protocol=protocol, seed=seed, trace=False, keys=keys
        )
    )
    before = probe.network.sent_count
    probe.spawn_joiner()
    probe.run_for(6.0 * delta)
    join = probe.history.joins()[0]
    if not join.done:  # pragma: no cover - a quiet system always joins
        raise AssertionError(f"{protocol} probe joiner failed to enter")
    return probe.network.sent_count - before


def _grid(p: dict[str, Any], quick: bool) -> list[RunSpec]:
    return [
        RunSpec.seeded(
            f"{__name__}:cell",
            p["seed"],
            f"e13:{protocol}:{keys}",
            protocol=protocol,
            n=N,
            delta=DELTA,
            keys=keys,
            horizon=p["horizon"],
            churn_rate=PROTOCOL_CHURN[protocol],
            read_rate=0.8,
            write_period=4.0 * DELTA,
            key_dist=KEY_DIST,
        )
        for protocol in PROTOCOL_CHURN
        for keys in p["key_counts"]
    ]


def _judge(p: dict[str, Any], quick: bool, outcomes: list[Any]) -> Judgement:
    key_counts = p["key_counts"]
    rows = []
    join_cost_ratios: list[float] = []
    for protocol, group in zip(PROTOCOL_CHURN, grouped(outcomes, len(key_counts))):
        base_round = group[0]["join_round_msgs"]
        for keys, data in zip(key_counts, group):
            round_msgs = data["join_round_msgs"]
            # ABD's trivial join sends nothing: cost is 0 at every key
            # count, ratio pinned at 1.
            ratio = round_msgs / base_round if base_round else 1.0
            if base_round:
                join_cost_ratios.append(ratio)
            rows.append(
                dict(
                    protocol=protocol,
                    keys=keys,
                    reads=data["reads_issued"],
                    writes=data["writes_issued"],
                    checked=data["reads_checked"],
                    violations=data["violations"],
                    joins=data["joins_completed"],
                    join_round_msgs=round_msgs,
                    join_cost_ratio=ratio,
                    stuck=data["stuck"],
                    ops_done=data["completed_ops"],
                )
            )
    notes = [
        "join_round_msgs is measured on an isolated probe: a quiet "
        "system admits one joiner and counts the point-to-point sends "
        "its entry round causes, so the batched-join claim is pinned "
        "directly, not through whole-run traffic (abd's trivial join "
        "sends nothing at any key count)",
        "violations aggregates the per-key partitioned checker: a keyed "
        "history is regular iff every key's sub-history is",
    ]
    all_regular = not any(row["violations"] for row in rows)
    if all_regular and all(ratio <= 1.5 for ratio in join_cost_ratios):
        verdict = (
            "REPRODUCED: every key independently regular at every key "
            "count, and join traffic stays flat as keys grow (batched "
            "inquiry rounds)"
        )
    elif all_regular:
        verdict = (
            "NOT REPRODUCED: regular, but join traffic grew with the key "
            "count — the batched inquiry round regressed"
        )
    else:
        verdict = "NOT REPRODUCED: a keyed run violated per-key regularity"
    return rows, notes, verdict


#: Key counts across the three protocols; quick mode keeps the first two.
EXPERIMENT = Experiment(
    id="E13",
    title="RegisterSpace — keyed store on the paper's quorum machinery",
    claim=(
        "every key of a keyed register space is independently regular "
        "under each protocol's hypotheses, and join traffic is "
        "independent of the key count (batched inquiry rounds)"
    ),
    params=lambda seed, quick: dict(
        n=N, delta=DELTA, horizon=150.0 if quick else 400.0,
        key_counts=KEY_COUNTS[:2] if quick else KEY_COUNTS, key_dist=KEY_DIST,
        seed=seed,
    ),
    grid=_grid,
    judge=_judge,
)
