"""Unit tests for the workload driver."""

from array import array

import pytest

from repro.sim.errors import ExperimentError
from repro.workloads.schedule import Plan, ReadOp, WorkloadDriver, WriteOp
from tests.conftest import make_system

DELTA = 5.0


class TestWriteSerialization:
    def test_overlapping_writes_are_skipped(self):
        """The driver enforces the paper's no-concurrent-writes premise."""
        system = make_system(protocol="es", n=11)
        driver = WorkloadDriver(system)
        # ES writes take ~2 round trips; 0.1 apart guarantees overlap.
        driver.install([WriteOp(time=1.0), WriteOp(time=1.1), WriteOp(time=1.2)])
        system.run_until(40.0)
        assert driver.stats.writes_issued == 1
        assert driver.stats.writes_skipped == 2

    def test_sequential_writes_all_issue(self):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([WriteOp(time=1.0), WriteOp(time=20.0), WriteOp(time=40.0)])
        system.run_until(60.0)
        assert driver.stats.writes_issued == 3
        assert driver.stats.writes_skipped == 0
        assert all(handle.done for handle in system.history.writes())

    def test_departed_writer_skips(self):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([WriteOp(time=10.0)])
        system.run_until(5.0)
        system.leave(system.writer_pid)
        system.run_until(20.0)
        assert driver.stats.writes_issued == 0
        assert driver.stats.writes_skipped == 1


class TestReaderSelection:
    def test_reads_target_active_processes(self):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([ReadOp(time=float(t)) for t in range(1, 11)])
        system.run_until(20.0)
        assert driver.stats.reads_issued == 10
        for handle in system.history.reads():
            assert handle.done

    def test_explicit_reader_honoured(self):
        system = make_system()
        target = system.seed_pids[6]
        driver = WorkloadDriver(system)
        driver.install([ReadOp(time=1.0, reader=target)])
        system.run_until(5.0)
        assert system.history.reads()[0].process_id == target

    def test_no_active_processes_skips(self):
        system = make_system(n=2)
        driver = WorkloadDriver(system)
        driver.install([ReadOp(time=10.0)])
        system.leave(system.seed_pids[0])
        system.leave(system.seed_pids[1])
        system.run_until(20.0)
        assert driver.stats.reads_skipped == 1

    def test_avoid_writer_reads(self):
        system = make_system(n=3)
        driver = WorkloadDriver(system, exclude_writer=True)
        driver.install([ReadOp(time=float(t)) for t in range(1, 21)])
        system.run_until(30.0)
        readers = {h.process_id for h in system.history.reads()}
        assert system.writer_pid not in readers

    def test_joining_reader_is_skipped(self):
        system = make_system()
        pid = system.spawn_joiner()
        driver = WorkloadDriver(system)
        driver.install([ReadOp(time=1.0, reader=pid)])  # still joining at t=1
        system.run_until(5.0)
        assert driver.stats.reads_skipped == 1


class TestNamedPids:
    """An explicit ``reader`` / ``writer`` that never entered the system
    is a mistyped plan, refused by name; one that departed or is still
    joining is a counted skip."""

    @pytest.mark.parametrize(
        "op, role, pid",
        [
            (ReadOp(time=3.0, reader="p9999x"), "reader", "p9999x"),
            (WriteOp(time=3.0, writer="nobody"), "writer", "nobody"),
        ],
    )
    def test_a_pid_that_never_entered_is_refused_with_its_time(self, op, role, pid):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([op])
        with pytest.raises(ExperimentError) as refused:
            system.run_until(5.0)
        message = str(refused.value)
        assert f"{type(op).__name__} planned at 3.0" in message
        assert f"names {role} {pid!r}" in message
        assert "never entered the system" in message
        assert driver.stats.reads_skipped == driver.stats.writes_skipped == 0

    def test_a_mistyped_writer_is_refused_while_a_write_is_pending(self):
        system = make_system(protocol="es", n=11)
        driver = WorkloadDriver(system)
        driver.install([WriteOp(time=1.0), WriteOp(time=1.1, writer="nobody")])
        with pytest.raises(ExperimentError, match="names writer 'nobody'"):
            system.run_until(40.0)

    def test_a_departed_reader_is_a_counted_skip(self):
        system = make_system()
        reader = system.seed_pids[3]
        driver = WorkloadDriver(system)
        driver.install([ReadOp(time=10.0, reader=reader)])
        system.run_until(5.0)
        system.leave(reader)
        system.run_until(20.0)
        assert driver.stats.reads_skipped == 1
        assert driver.stats.reads_issued == 0

    def test_a_joining_writer_is_a_counted_skip(self):
        system = make_system()
        pid = system.spawn_joiner()
        driver = WorkloadDriver(system)
        driver.install([WriteOp(time=1.0, writer=pid)])  # still joining at t=1
        system.run_until(5.0)
        assert driver.stats.writes_skipped == 1
        assert driver.stats.writes_issued == 0


class TestInstallRules:
    def test_double_install_rejected(self):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([])
        with pytest.raises(ExperimentError, match="^workload installed twice$"):
            driver.install([])

    @pytest.mark.parametrize(
        "op", [ReadOp(time=2.0, key="nope"), WriteOp(time=2.0, key="nope")]
    )
    def test_an_unknown_key_is_refused_by_name(self, op):
        system = make_system(keys=2)
        WorkloadDriver(system).install([op])
        with pytest.raises(KeyError, match="unknown register key 'nope'"):
            system.run_until(5.0)

    def test_past_operation_rejected(self):
        system = make_system()
        system.run_until(10.0)
        driver = WorkloadDriver(system)
        with pytest.raises(ExperimentError):
            driver.install([ReadOp(time=5.0)])

    @pytest.mark.parametrize("shape", ["list", "Plan"])
    @pytest.mark.parametrize(
        "time",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            9.5,
        ],
    )
    def test_a_bad_time_is_refused_by_position_and_nothing_is_scheduled(
        self, time, shape
    ):
        system = make_system()
        system.run_until(10.0)
        pending = system.engine.pending_count
        driver = WorkloadDriver(system)
        plan = [ReadOp(time=11.0), WriteOp(time=12.0), WriteOp(time=time)]
        if shape == "Plan":
            plan = Plan(array("d", [11.0, 12.0, time]), [None, *plan[1:]])
        with pytest.raises(ExperimentError) as refused:
            driver.install(plan)
        message = str(refused.value)
        assert "operation 2 of the plan (WriteOp)" in message
        assert f"planned at {time!r}" in message
        assert "the clock, which reads 10.0" in message
        assert system.engine.pending_count == pending

    @pytest.mark.parametrize("shape", ["list", "Plan"])
    def test_an_unknown_op_is_refused_by_position(self, shape):
        system = make_system()
        pending = system.engine.pending_count
        driver = WorkloadDriver(system)
        plan = [ReadOp(time=1.0), ("read", 2.0)]
        if shape == "Plan":
            plan = Plan(array("d", [1.0, 2.0]), [None, plan[1]])
        with pytest.raises(ExperimentError, match="position 1 of the plan"):
            driver.install(plan)
        assert system.engine.pending_count == pending

    @pytest.mark.parametrize(
        "times, ops, named",
        [
            (
                [3.0, 2.0, 4.0],
                [None, None, None],
                "operation 1 of the plan is filed at 2.0, before operation 0 "
                "at 3.0: a plan's instants never decrease",
            ),
            (
                [1.0, 2.0],
                [None, WriteOp(time=2.5)],
                r"operation 1 of the plan \(WriteOp\) is planned at 2.5 but "
                "filed at 2.0",
            ),
        ],
    )
    def test_a_plan_out_of_order_or_misfiled_is_refused_by_position(
        self, times, ops, named
    ):
        system = make_system()
        pending = system.engine.pending_count
        with pytest.raises(ExperimentError, match=named):
            WorkloadDriver(system).install(Plan(array("d", times), ops))
        assert system.engine.pending_count == pending

    def test_a_plan_needs_one_instant_per_op(self):
        with pytest.raises(ExperimentError, match="a plan of 2 instants for 1 ops"):
            Plan(array("d", [1.0, 2.0]), [None])

    def test_a_plan_has_no_mutator_and_is_filed_as_it_is(self):
        """The engine keeps the plan's own ``times`` until the clock
        passes them, so a plan offers nothing that changes it."""
        for mutator in ("append", "extend", "insert", "pop", "sort",
                        "__setitem__", "__delitem__", "__iadd__"):
            assert not hasattr(Plan, mutator), mutator
        system = make_system()
        plan = Plan(array("d", [1.0, 2.0]), [None, WriteOp(time=2.0)])
        with pytest.raises(AttributeError):
            plan.extra = ()
        WorkloadDriver(system).install(plan)
        assert any(
            vector[2] is plan.times for vector in system.engine._vectors.values()
        )
        assert list(plan) == [ReadOp(time=1.0), WriteOp(time=2.0)]
        assert plan[-2:][0] == ReadOp(time=1.0) and len(plan[-2:]) == 2

    def test_an_unsorted_plan_fires_in_time_then_list_order(self):
        system = make_system()
        driver = WorkloadDriver(system)
        readers = system.seed_pids[:3]
        pending = system.engine.pending_count
        driver.install(
            [
                ReadOp(time=3.0, reader=readers[0]),
                ReadOp(time=1.0, reader=readers[1]),
                ReadOp(time=3.0, reader=readers[2]),
            ]
        )
        assert system.engine.pending_count == pending + 3
        system.run_until(5.0)
        assert [
            (handle.invoke_time, handle.process_id)
            for handle in system.history.reads()
        ] == [(1.0, readers[1]), (3.0, readers[0]), (3.0, readers[2])]


class TestStatsAreCounts:
    """The driver counts what it issued; the handles are the history's."""

    def test_stats_hold_counts_only(self):
        from repro.workloads.schedule import WorkloadStats

        stats = WorkloadStats()
        assert all(value == 0 for value in vars(stats).values())

    def test_issued_operations_are_the_historys(self):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([WriteOp(time=1.0), ReadOp(time=2.0)])
        system.run_until(20.0)
        writes, reads = system.history.writes(), system.history.reads()
        assert (len(writes), len(reads)) == (
            driver.stats.writes_issued, driver.stats.reads_issued
        ) == (1, 1)
        assert all(handle.done for handle in writes + reads)
