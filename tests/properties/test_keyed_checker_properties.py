"""Per-key checking ≡ single-register checking of each key's sub-history.

The RegisterSpace checkers partition a multi-key history by key and
judge each key's sub-history with the unchanged single-register sweep.
This suite pins that equivalence against an *independent* filter
implemented here (not via ``History.sub_history``): over randomized
multi-key churn histories, the partitioning checker's judgements must
be exactly the concatenation of single-register judgements over each
key's filtered operations — same operations, same verdicts, same
allowed sets, same inversions — in both fast and paranoid modes.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core.checker import RegularityChecker, find_new_old_inversions
from repro.core.history import History
from repro.net.delay import AdversarialDelay, SynchronousDelay
from repro.protocols.common import JoinResult
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.workloads.generators import assign_keys, make_key_picker, read_heavy_plan
from repro.workloads.scenarios import DelayRule, ScriptedDelays
from repro.workloads.schedule import WorkloadDriver


class _IndependentJoinView:
    """A test-local per-key join adapter (deliberately *not* the
    library's ``_JoinKeyView``), so the equivalence below compares two
    genuinely distinct implementations of "filter by key"."""

    def __init__(self, op: Any, key: Any) -> None:
        self._op = op
        self.key = key

    @property
    def result(self) -> Any:
        result = self._op.result
        if hasattr(result, "adoptions"):
            value, sequence = result.adoptions[self.key]
            return JoinResult(value, sequence)
        return result

    def __getattr__(self, name: str) -> Any:
        return getattr(self._op, name)


def independent_sub_history(history: History, key: Any) -> History:
    """Filter a keyed history down to one key, from first principles."""
    sub = History(history.initial_value)
    for op in history:
        if op.kind == "join":
            sub.record_operation(_IndependentJoinView(op, key))
        elif op.key == key:
            sub.record_operation(op)
    if history.horizon is not None:
        sub.close(history.horizon)
    return sub


def run_keyed_history(
    protocol: str, seed: int, keys: int, key_dist: str, churn: float
) -> History:
    system = DynamicSystem(
        SystemConfig(
            n=12, delta=5.0, protocol=protocol, seed=seed, trace=False, keys=keys
        )
    )
    if churn > 0:
        system.attach_churn(rate=churn, min_stay=15.0)
    driver = WorkloadDriver(system)
    plan = read_heavy_plan(
        start=5.0,
        end=100.0,
        write_period=10.0,
        read_rate=1.0,
        rng=system.rng.stream("prop.plan"),
    )
    plan = assign_keys(
        plan, make_key_picker(key_dist, system.keys, system.rng.stream("prop.keys"))
    )
    driver.install(plan)
    system.run_until(130.0)
    return system.close()


def judgement_fingerprint(report) -> list[tuple]:
    return [
        (j.operation.op_id, getattr(j.operation, "key", None), j.returned,
         tuple(j.allowed), j.valid, j.last_completed_index)
        for j in report.judgements
    ]


def run_keyed_figure3a(seed: int = 0) -> History:
    """A keyed replay of Figure 3(a): the violation lands on one key.

    Two keys; the writer updates ``k0`` while a naive (no line-02 wait)
    joiner inquires under the figure's adversarial schedule, adopts the
    stale ``k0`` value and serves it to a read — a regularity violation
    confined to ``k0``'s sub-history while ``k1`` stays clean.
    """
    delta = 5.0
    rules = [
        DelayRule(payload_type="WriteMsg", delay=delta),
        DelayRule(payload_type="Inquiry", dest="p0002", delay=0.5),
        DelayRule(payload_type="Inquiry", dest="p0003", delay=0.5),
        DelayRule(payload_type="Inquiry", dest="p0001", delay=delta),
        DelayRule(payload_type="Reply", delay=0.5),
    ]
    system = DynamicSystem(
        SystemConfig(
            n=3,
            delta=delta,
            protocol="naive",
            delay=AdversarialDelay(
                ScriptedDelays(rules, default=1.0),
                fallback=SynchronousDelay(delta),
            ),
            seed=seed,
            keys=2,
        )
    )
    system.run_until(10.0)
    write = system.write("v1", key="k0")
    system.run_until(10.5)
    joiner = system.spawn_joiner()
    system.run_until(15.2)
    assert write.done
    system.leave(system.writer_pid)
    system.run_until(27.0)
    system.read(joiner, key="k0")
    system.read(joiner, key="k1")
    system.run_until(30.0)
    return system.close()


CASES = [
    ("sync", 0, 2, "uniform", 0.03),
    ("sync", 1, 3, "zipf", 0.05),
    ("sync", 2, 5, "zipf", 0.0),
    ("naive", 3, 3, "uniform", 0.08),
    ("es", 4, 2, "uniform", 0.004),
    ("es", 5, 4, "zipf", 0.0),
]


class TestKeyedCheckerEquivalence:
    @pytest.mark.parametrize("protocol,seed,keys,key_dist,churn", CASES)
    @pytest.mark.parametrize("paranoid", [False, True])
    def test_partitioned_safety_equals_filtered_single_register(
        self, protocol, seed, keys, key_dist, churn, paranoid
    ):
        history = run_keyed_history(protocol, seed, keys, key_dist, churn)
        assert len(history.keys()) > 1, "the workload must actually be keyed"
        keyed = RegularityChecker(history, paranoid=paranoid).check()
        manual = []
        for key in history.keys():
            sub = independent_sub_history(history, key)
            report = RegularityChecker(sub, paranoid=paranoid).check()
            manual.extend(judgement_fingerprint(report))
        assert judgement_fingerprint(keyed) == manual

    @pytest.mark.parametrize("protocol,seed,keys,key_dist,churn", CASES)
    def test_partitioned_atomicity_equals_filtered_single_register(
        self, protocol, seed, keys, key_dist, churn
    ):
        history = run_keyed_history(protocol, seed, keys, key_dist, churn)
        keyed = find_new_old_inversions(history)
        manual_inversions = []
        manual_safe = True
        for key in history.keys():
            sub = independent_sub_history(history, key)
            report = find_new_old_inversions(sub)
            manual_safe = manual_safe and report.safety.is_safe
            manual_inversions.extend(
                (inv.earlier.op_id, inv.later.op_id,
                 inv.earlier_write_index, inv.later_write_index)
                for inv in report.inversions
            )
        assert keyed.safety.is_safe == manual_safe
        assert [
            (inv.earlier.op_id, inv.later.op_id,
             inv.earlier_write_index, inv.later_write_index)
            for inv in keyed.inversions
        ] == manual_inversions

    def test_keyed_figure3a_violation_lands_on_the_written_key(self):
        """A broken run's violations must be attributed per key: the
        keyed Figure 3(a) replay violates on ``k0`` and only ``k0``."""
        history = run_keyed_figure3a()
        report = RegularityChecker(history).check()
        assert not report.is_safe, "the naive keyed joiner must serve stale k0"
        assert {j.operation.key for j in report.violations} == {"k0"}
        # The independent filter agrees key by key.
        k0 = RegularityChecker(independent_sub_history(history, "k0")).check()
        k1 = RegularityChecker(independent_sub_history(history, "k1")).check()
        assert not k0.is_safe
        assert k1.is_safe
        assert {j.operation.op_id for j in report.violations} == {
            j.operation.op_id for j in k0.violations
        }

    def test_single_key_history_is_not_partitioned(self):
        """keys=1 must take the classic path (one key, [None])."""
        system = DynamicSystem(
            SystemConfig(n=8, delta=5.0, protocol="sync", seed=9, trace=False)
        )
        system.write("v1")
        system.run_for(10.0)
        system.read(system.active_pids()[2])
        history = system.close()
        assert history.keys() == [None]
        assert RegularityChecker(history).check().is_safe
