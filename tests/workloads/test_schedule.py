"""Unit tests for the workload driver."""

import pytest

from repro.sim.errors import ExperimentError
from repro.workloads.schedule import ReadOp, WorkloadDriver, WriteOp
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
        assert driver.stats.write_completion_rate == 1.0

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
        for handle in driver.stats.read_handles:
            assert handle.done

    def test_explicit_reader_honoured(self):
        system = make_system()
        target = system.seed_pids[6]
        driver = WorkloadDriver(system)
        driver.install([ReadOp(time=1.0, reader=target)])
        system.run_until(5.0)
        assert driver.stats.read_handles[0].process_id == target

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
        driver = WorkloadDriver(system, avoid_writer_reads=True)
        driver.install([ReadOp(time=float(t)) for t in range(1, 21)])
        system.run_until(30.0)
        readers = {h.process_id for h in driver.stats.read_handles}
        assert system.writer_pid not in readers

    def test_joining_reader_is_skipped(self):
        system = make_system()
        pid = system.spawn_joiner()
        driver = WorkloadDriver(system)
        driver.install([ReadOp(time=1.0, reader=pid)])  # still joining at t=1
        system.run_until(5.0)
        assert driver.stats.reads_skipped == 1


class TestInstallRules:
    def test_double_install_rejected(self):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([])
        with pytest.raises(ExperimentError):
            driver.install([])

    def test_past_operation_rejected(self):
        system = make_system()
        system.run_until(10.0)
        driver = WorkloadDriver(system)
        with pytest.raises(ExperimentError):
            driver.install([ReadOp(time=5.0)])

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
        self, time
    ):
        system = make_system()
        system.run_until(10.0)
        pending = system.engine.pending_count
        driver = WorkloadDriver(system)
        plan = [ReadOp(time=11.0), WriteOp(time=12.0), WriteOp(time=time)]
        with pytest.raises(ExperimentError) as refused:
            driver.install(plan)
        message = str(refused.value)
        assert "operation 2 of the plan (WriteOp)" in message
        assert f"planned at {time!r}" in message
        assert "the clock, which reads 10.0" in message
        assert system.engine.pending_count == pending

    def test_an_unknown_op_is_refused_by_position(self):
        driver = WorkloadDriver(make_system())
        with pytest.raises(ExperimentError, match="position 1 of the plan"):
            driver.install([ReadOp(time=1.0), ("read", 2.0)])

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
            for handle in driver.stats.read_handles
        ] == [(1.0, readers[1]), (3.0, readers[0]), (3.0, readers[2])]


class TestStatsProperties:
    def test_completion_rates_default_to_one(self):
        from repro.workloads.schedule import WorkloadStats

        stats = WorkloadStats()
        assert stats.read_completion_rate == 1.0
        assert stats.write_completion_rate == 1.0

    def test_completion_rates_count_done_handles(self):
        system = make_system()
        driver = WorkloadDriver(system)
        driver.install([WriteOp(time=1.0), ReadOp(time=2.0)])
        system.run_until(20.0)
        assert driver.stats.write_completion_rate == 1.0
        assert driver.stats.read_completion_rate == 1.0
