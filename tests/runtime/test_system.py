"""Tests for the DynamicSystem runtime façade."""

import pytest

from repro.sim.errors import ProcessError
from repro.sim.trace import TraceKind
from tests.conftest import make_system

DELTA = 5.0


class TestConstruction:
    def test_seeds_are_active_at_time_zero(self, sync_system):
        assert sync_system.engine.now == 0.0
        assert len(sync_system.active_pids()) == 10
        assert len(sync_system.membership) == 10

    def test_writer_defaults_to_first_seed(self, sync_system):
        assert sync_system.writer_pid == sync_system.seed_pids[0]

    def test_seed_pids_are_stable(self, sync_system):
        assert sync_system.seed_pids == tuple(f"p{i:04d}" for i in range(1, 11))

    def test_tracker_initial_probe(self, sync_system):
        sample = sync_system.tracker.samples[0]
        assert sample.active == 10


class TestDynamicity:
    def test_spawn_joiner_enters_listening(self, sync_system):
        pid = sync_system.spawn_joiner()
        assert len(sync_system.membership) == 11
        assert pid not in sync_system.active_pids()
        assert sum(r.kind is TraceKind.ENTER for r in sync_system.trace) >= 1

    def test_leave_removes_process(self, sync_system):
        victim = sync_system.seed_pids[4]
        sync_system.leave(victim)
        assert len(sync_system.membership) == 9
        assert not sync_system.membership.is_present(victim)
        assert sync_system.history._departures.get(victim) == 0.0

    def test_double_leave_rejected(self, sync_system):
        victim = sync_system.seed_pids[4]
        sync_system.leave(victim)
        with pytest.raises(ProcessError):
            sync_system.leave(victim)

    def test_leave_mid_join_abandons(self, sync_system):
        pid = sync_system.spawn_joiner()
        join = sync_system.history.joins()[0]
        sync_system.run_for(1.0)
        sync_system.leave(pid)
        sync_system.run_for(4 * DELTA)
        assert join.abandoned

    def test_next_value_is_unique(self, sync_system):
        values = {sync_system.next_value() for _ in range(100)}
        assert len(values) == 100


class TestOperations:
    def test_write_defaults_to_writer_and_auto_value(self, sync_system):
        handle = sync_system.write()
        assert handle.process_id == sync_system.writer_pid
        assert handle.argument == "w1"
        sync_system.run_for(2 * DELTA)
        assert handle.done

    def test_write_by_explicit_pid(self, sync_system):
        other = sync_system.seed_pids[3]
        handle = sync_system.write("x", pid=other)
        assert handle.process_id == other

    def test_operations_recorded_in_history(self, sync_system):
        sync_system.write("v1")
        sync_system.run_for(2 * DELTA)
        sync_system.read(sync_system.seed_pids[2])
        assert len(sync_system.history.writes()) == 1
        assert len(sync_system.history.reads()) == 1


class TestRunAndCheck:
    def test_run_until_and_run_for(self, sync_system):
        sync_system.run_until(10.0)
        assert sync_system.engine.now == 10.0
        sync_system.run_for(5.0)
        assert sync_system.engine.now == 15.0

    def test_close_is_idempotent(self, sync_system):
        sync_system.run_until(5.0)
        history = sync_system.close()
        assert history.horizon == 5.0
        sync_system.close()
        assert history.horizon == 5.0

    def test_check_wrappers(self, sync_system):
        sync_system.write("v1")
        sync_system.run_for(2 * DELTA)
        sync_system.read(sync_system.seed_pids[5])
        assert sync_system.check_safety().is_safe
        assert sync_system.check_atomicity().is_atomic
        assert sync_system.check_liveness().is_live

    def test_default_grace_is_three_delta(self, sync_system):
        """An operation pending for less than 3δ at the horizon is not
        stuck."""
        sync_system.run_until(10.0)
        sync_system.spawn_joiner()  # needs 3δ = 15
        sync_system.run_until(12.0)
        report = sync_system.check_liveness()
        assert report.is_live
        assert report.in_grace == 1


class TestDeterminism:
    def test_same_seed_same_run(self):
        def signature(seed):
            system = make_system(n=15, seed=seed)
            system.attach_churn(rate=0.05)
            system.write("v1")
            system.run_until(40.0)
            history = system.close()
            return (
                system.network.sent_count,
                system.network.delivered_count,
                len(history),
                tuple(
                    (op.kind, op.process_id, op.invoke_time, op.response_time)
                    for op in history
                ),
            )

        assert signature(123) == signature(123)

    def test_different_seeds_differ(self):
        def fingerprint(seed):
            system = make_system(n=15, seed=seed)
            system.attach_churn(rate=0.05)
            system.run_until(40.0)
            return system.network.sent_count

        assert fingerprint(1) != fingerprint(2)


class TestSharedEngineAndNamespace:
    """The cluster-facing constructor surface (PR 5)."""

    def test_private_engine_is_owned(self):
        system = make_system(n=3)
        assert system.owns_engine
        assert system.shard_id is None

    def test_injected_engine_is_shared_not_owned(self):
        from repro.runtime.config import SystemConfig
        from repro.runtime.system import DynamicSystem
        from repro.sim.engine import EventScheduler

        engine = EventScheduler()
        a = DynamicSystem(SystemConfig(n=3, seed=1), engine=engine, shard_id=0)
        b = DynamicSystem(SystemConfig(n=3, seed=2), engine=engine, shard_id=1)
        assert a.engine is engine and b.engine is engine
        assert not a.owns_engine and not b.owns_engine
        # Advancing the shared clock advances both populations' timers.
        a.write("x")
        b.write("y")
        engine.run_until(4 * DELTA)
        assert a.history.writes()[0].done
        assert b.history.writes()[0].done

    def test_non_owner_cannot_drive_the_shared_clock(self):
        from repro.runtime.config import SystemConfig
        from repro.runtime.system import DynamicSystem
        from repro.sim.engine import EventScheduler
        from repro.sim.errors import ConfigError

        shard = DynamicSystem(
            SystemConfig(n=3, seed=1), engine=EventScheduler(), shard_id=0
        )
        with pytest.raises(ConfigError):
            shard.run_for(10.0)
        with pytest.raises(ConfigError):
            shard.run_until(10.0)

    def test_shard_id_stamps_recorded_operations(self):
        from repro.runtime.config import SystemConfig
        from repro.runtime.system import DynamicSystem

        system = DynamicSystem(SystemConfig(n=3, seed=0), shard_id=7)
        handle = system.write("v")
        system.run_for(4 * DELTA)
        assert handle.shard == 7
        assert all(op.shard == 7 for op in system.history)

    def test_default_system_leaves_shard_unset(self):
        system = make_system(n=3)
        handle = system.write("v")
        system.run_for(4 * DELTA)
        assert handle.shard is None

    def test_pid_prefix_namespaces_every_process(self):
        from repro.runtime.config import SystemConfig
        from repro.runtime.system import DynamicSystem

        system = DynamicSystem(SystemConfig(n=3, seed=0, pid_prefix="s2.p"))
        assert system.seed_pids == ("s2.p0001", "s2.p0002", "s2.p0003")
        joiner = system.spawn_joiner()
        assert joiner == "s2.p0004"

    def test_key_set_names_the_register_space(self):
        from repro.runtime.config import SystemConfig
        from repro.runtime.system import DynamicSystem

        system = DynamicSystem(
            SystemConfig(n=3, seed=0, keys=2, key_set=("k3", "k9"))
        )
        assert system.keys == ("k3", "k9")
        handle = system.write("v", key="k9")
        system.run_for(4 * DELTA)
        assert handle.done and handle.key == "k9"
