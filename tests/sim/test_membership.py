"""Unit tests for the membership registry and the presence queries a
process answers about itself."""

import pytest

from repro.sim.errors import ProcessError, UnknownProcessError
from repro.sim.membership import Membership
from repro.sim.process import SimProcess


def make_process(pid, engine):
    return SimProcess(pid, engine)


def lifecycle(engine, entered_at, activated_at=None, left_at=None):
    """A process that entered, turned active and left at the given
    instants, driven through the real transitions."""
    membership = Membership()
    engine.run_until(entered_at)
    process = make_process("p", engine)
    membership.enter(process)
    if activated_at is not None:
        engine.run_until(activated_at)
        process.mark_active()
    if left_at is not None:
        membership.leave("p", left_at)
    return process


class TestPresenceRecord:
    """A process is its own presence record."""

    def test_present_interval(self, engine):
        process = lifecycle(engine, entered_at=2.0, left_at=8.0)
        assert not process.present_at(1.9)
        assert process.present_at(2.0)
        assert process.present_at(7.9)
        assert not process.present_at(8.0)

    def test_present_forever_without_leave(self, engine):
        process = lifecycle(engine, entered_at=2.0)
        assert process.present_at(1e9)
        assert process.left_at is None

    def test_active_interval(self, engine):
        process = lifecycle(engine, entered_at=0.0, activated_at=3.0, left_at=9.0)
        assert not process.active_at(2.9)
        assert process.active_at(3.0)
        assert process.active_at(8.9)
        assert not process.active_at(9.0)

    def test_never_activated_is_never_active(self, engine):
        process = lifecycle(engine, entered_at=0.0)
        assert not process.active_at(100.0)

    def test_active_throughout_window(self, engine):
        process = lifecycle(engine, entered_at=0.0, activated_at=3.0, left_at=20.0)
        assert process.active_throughout(3.0, 19.0)
        assert not process.active_throughout(2.0, 10.0)  # activated too late
        assert not process.active_throughout(5.0, 20.0)  # leaves at window end
        assert process.active_throughout(5.0, 19.5)

    def test_a_seed_is_active_from_its_first_instant(self, engine):
        engine.run_until(4.0)
        seed = SimProcess("s", engine, active=True)
        assert seed.is_active and seed.present_at(4.0) and not seed.present_at(3.9)
        assert seed.active_at(4.0) and not seed.active_at(3.9)


class TestMembership:
    def test_enter_and_lookup(self, engine, membership):
        process = make_process("p1", engine)
        membership.enter(process)
        assert "p1" in membership
        assert membership.is_present("p1")
        assert membership.process("p1") is process
        assert len(membership) == 1

    def test_identity_reuse_forbidden(self, engine, membership):
        membership.enter(make_process("p1", engine))
        with pytest.raises(ProcessError):
            membership.enter(make_process("p1", engine))

    def test_unknown_pid_raises(self, membership):
        with pytest.raises(UnknownProcessError):
            membership.process("ghost")
        with pytest.raises(UnknownProcessError):
            membership.leave("ghost", 1.0)

    def test_leave_removes_from_present(self, engine, membership):
        membership.enter(make_process("p1", engine))
        membership.leave("p1", 5.0)
        assert not membership.is_present("p1")
        assert "p1" in membership  # the process survives, as its record
        assert len(membership) == 0
        assert membership.process("p1").left_at == 5.0

    def test_double_leave_rejected(self, engine, membership):
        membership.enter(make_process("p1", engine))
        membership.leave("p1", 5.0)
        with pytest.raises(ProcessError):
            membership.leave("p1", 6.0)

    def test_mark_active_after_leave_rejected(self, engine, membership):
        process = make_process("p1", engine)
        membership.enter(process)
        process.depart()
        membership.leave("p1", 5.0)
        with pytest.raises(ProcessError):
            process.mark_active()

    def test_the_active_list_requires_mark(self, engine, membership):
        p1, p2 = make_process("p1", engine), make_process("p2", engine)
        membership.enter(p1)
        membership.enter(p2)
        p1.mark_active()
        assert membership.active_pids() == ["p1"]

    def test_counting_queries(self, engine, membership):
        processes = [make_process(f"p{i}", engine) for i in range(3)]
        for process in processes:
            membership.enter(process)
        engine.run_until(1.0)
        for process, activate in zip(processes, [True, True, False]):
            if activate:
                process.mark_active()
        membership.leave("p0", 10.0)
        assert membership.active_count_at(5.0) == 2
        assert membership.active_count_at(10.0) == 1
        assert membership.active_throughout_count(1.0, 9.0) == 2
        assert membership.active_throughout_count(1.0, 10.0) == 1

    def test_processes_in_entry_order(self, engine, membership):
        for pid in ("a", "b", "c"):
            membership.enter(make_process(pid, engine))
        membership.leave("b", 0.0)
        assert [p.pid for p in membership.processes()] == ["a", "b", "c"]
