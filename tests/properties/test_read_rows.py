"""A read row is its handle.

A planned synchronous read is complete as it is invoked and nothing
waits on it, so the history records it as a row of its columns (its
instant, its op id, and its process, key and value) directly
(``record_read``), without an ``OperationHandle``.  The reference is the
general path: :func:`tests.conftest.every_read_a_handle` has the node
return each such read as a handle, which the driver records through
``record_operation``, its op id drawn at the same point.  Both arms keep
one born-complete row per planned read.  Two runs of one churned,
read-heavy workload — over
a population or a cluster of 4 shards (with a key handoff when keyed),
1 or 8 keys — one per arm, must agree on the digest, on every field of the
regularity, atomicity and liveness reports, and on what iteration,
``sub_history``, ``shard_view`` and ``seam_view`` show, operation by
operation, op ids counted from the run's first.
"""

from __future__ import annotations

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterSystem, cluster_digest
from repro.core.history import History, operation_digest
from repro.sim.operations import OperationHandle
from repro.workloads.cluster import schedule_round_robin_migrations
from repro.workloads.generators import drive_read_heavy, uniform_key_picker
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import every_read_a_handle, make_system

DELTA = 5.0
HORIZON = 70.0


def _first_id() -> int:
    """The op id the run's first operation will draw, drawn."""
    return OperationHandle("probe", "-", 0.0).op_id + 1


def operation(op, base: int) -> tuple:
    """Everything an operation shows a checker or a digest."""
    done = op.response_time is not None
    return (
        op.op_id - base,
        op.kind,
        op.process_id,
        op.key,
        op.shard,
        op.argument,
        repr(op.invoke_time),
        repr(op.response_time),
        op.response_time is op.invoke_time,
        done,
        op.abandoned,
        repr(op.result) if done else None,
    )


def born_complete(history: History) -> int:
    """The rows of ``history`` without an interval: its born-complete
    reads."""
    return len(history) - sum(1 for _ in history.intervals())


def operations(history, base: int) -> list[tuple]:
    return [operation(op, base) for op in history]


def judgements(judged, base: int) -> list[tuple]:
    return [
        (
            operation(j.operation, base),
            j.returned,
            j.allowed,
            j.valid,
            j.last_completed_index,
            j.explanation,
        )
        for j in judged
    ]


def safety(report, base: int) -> tuple:
    return (
        report.checked_count,
        report.violation_count,
        report.is_safe,
        judgements(report.violations, base),
        judgements(report.judgements, base),
    )


def observe(
    shards: int, keys: int, churn: float, seed: int, rows: bool
) -> tuple[dict, int, int]:
    """Drive one run in the row arm or the handle arm: what it shows,
    the born-complete rows its histories keep and the reads recorded as
    handles."""
    arm = nullcontext([]) if rows else every_read_a_handle()
    with arm as handles:
        base = _first_id()
        if shards == 1:
            system = make_system(n=12, delta=DELTA, seed=seed, keys=keys, trace=False)
        else:
            system = ClusterSystem(
                ClusterConfig(
                    shards=shards, keys=keys, n=12 * shards, delta=DELTA, seed=seed
                )
            )
            if keys > 1:
                schedule_round_robin_migrations(system, 1, HORIZON)
        if churn:
            system.attach_churn(rate=churn, min_stay=3.0 * DELTA)
        pick = (
            uniform_key_picker(system.keys, system.rng.stream("rows.keys"))
            if keys > 1
            else None
        )
        history = drive_read_heavy(
            system, WorkloadDriver(system), HORIZON, HORIZON - 4 * DELTA,
            2 * DELTA, 4.0, "rows.plan", pick,
        )
        atomicity = system.check_atomicity()
        liveness = system.check_liveness(grace=3.0 * DELTA)
        seen = {
            "recorded": len(history),
            "operations": operations(history, base),
            "safety": safety(system.check_safety(), base),
            "atomicity": (
                safety(atomicity.safety, base),
                atomicity.is_atomic,
                atomicity.is_regular_but_not_atomic,
                [
                    (
                        operation(inv.earlier, base),
                        operation(inv.later, base),
                        inv.earlier_write_index,
                        inv.later_write_index,
                    )
                    for inv in atomicity.inversions
                ],
            ),
            "liveness": (
                liveness.completed,
                liveness.excused,
                liveness.in_grace,
                [(operation(s.operation, base), s.age) for s in liveness.stuck],
                {kind: list(map(repr, v)) for kind, v in liveness.latencies.items()},
                list(liveness.latencies),
            ),
        }
        if shards == 1:
            seen["digest"] = operation_digest(history)
            subs = [history]
        else:
            seen["digest"] = cluster_digest(history)
            subs = [history.shard_view(s) for s in history.shard_ids()]
            seen["migrated"] = sorted(history.migrated_keys, key=str)
            subs += [history.seam_view(key) for key in seen["migrated"]]
        seen["views"] = [
            [operations(view.sub_history(key), base) for key in view.keys()]
            for view in subs
        ]
        rows_kept = sum(born_complete(shard.history) for shard in system.shards)
    return seen, rows_kept, len(handles)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    churn=st.sampled_from([0.0, 0.03]),
    keys=st.sampled_from([1, 8]),
    shards=st.sampled_from([1, 4]),
)
def test_a_read_row_is_its_handle(seed, churn, keys, shards):
    as_rows, rows, none = observe(shards, keys, churn, seed, rows=True)
    as_handles, rows_of_handles, handles = observe(shards, keys, churn, seed, rows=False)
    assert rows == handles > 20 and none == 0
    assert rows_of_handles == handles
    assert as_rows == as_handles
