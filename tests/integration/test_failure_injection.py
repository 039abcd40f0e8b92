"""Failure injection: departures at the worst possible moments.

The model equates a leave with a crash (Section 2.1), so these tests
double as crash-tolerance tests.  Each scenario checks that the
observable history stays consistent — abandoned operations are excused,
surviving operations stay correct.
"""

import pytest

from repro.net.delay import EventuallySynchronousDelay
from tests.conftest import make_system

DELTA = 5.0


class TestWriterFailures:
    def test_writer_leaving_mid_write_abandons_it(self):
        system = make_system()
        handle = system.write("doomed")
        system.run_for(DELTA / 2)
        system.leave(system.writer_pid)
        system.run_for(2 * DELTA)
        assert handle.abandoned
        assert system.check_liveness().is_live  # excused, not stuck

    def test_abandoned_write_value_may_still_be_read(self):
        """The broadcast went out before the writer left: survivors may
        hold the value, and reading it is legal (the write is forever
        concurrent)."""
        system = make_system()
        system.write("doomed")
        system.run_for(DELTA / 2)
        system.leave(system.writer_pid)
        system.run_for(2 * DELTA)
        handles = [system.read(pid) for pid in system.active_pids()[:5]]
        system.run_for(DELTA)
        values = {h.result for h in handles}
        assert values <= {"doomed", "v0"}
        assert system.check_safety().is_safe

    def test_next_writer_can_take_over(self):
        """After the writer leaves, another process can write (the
        paper allows any number of writers as long as writes are
        serialized)."""
        system = make_system()
        system.write("v1")
        system.run_for(2 * DELTA)
        system.leave(system.writer_pid)
        successor = system.active_pids()[0]
        handle = system.write("v2", pid=successor)
        system.run_for(2 * DELTA)
        assert handle.done
        read = system.read(system.active_pids()[1])
        assert read.result == "v2"
        assert system.check_safety().is_safe


class TestMassDepartures:
    def test_sync_survives_half_the_system_leaving_at_once(self):
        system = make_system(n=20, seed=5)
        system.write("v1")
        system.run_for(2 * DELTA)
        for pid in system.seed_pids[10:]:
            system.leave(pid)
        handle = system.read(system.seed_pids[2])
        assert handle.result == "v1"
        joiner = system.spawn_joiner()
        system.run_for(4 * DELTA)
        assert system.node(joiner).is_active
        assert system.check_safety().is_safe

    def test_es_stalls_gracefully_below_majority(self):
        """Losing the active majority blocks quorum operations but never
        corrupts the register (stall, don't lie)."""
        system = make_system(protocol="es", n=11, seed=5)
        system.write("v1")
        system.run_for(6 * DELTA)
        for pid in system.seed_pids[:6]:  # 6 of 11 leave; 5 < majority
            if system.membership.is_present(pid):
                system.leave(pid)
        survivors = system.active_pids()
        handle = system.read(survivors[0])
        system.run_for(20 * DELTA)
        assert handle.pending  # stalled...
        assert system.check_safety().is_safe  # ...but never wrong

    def test_readers_leaving_mid_read_are_excused(self):
        system = make_system(protocol="es", n=11, seed=7)
        reader = system.seed_pids[4]
        handle = system.read(reader)
        system.leave(reader)
        system.run_for(6 * DELTA)
        assert handle.abandoned
        assert system.check_liveness(grace=6 * DELTA).is_live


class TestJoinerFailures:
    def test_joiner_leaving_mid_join_is_excused(self):
        system = make_system()
        pid = system.spawn_joiner()
        join = system.history.joins()[0]
        system.run_for(DELTA)
        system.leave(pid)
        system.run_for(4 * DELTA)
        assert join.abandoned
        assert system.check_liveness().is_live

    def test_repliers_leaving_does_not_block_sync_join(self):
        """The sync join is timer-based: it terminates no matter what
        (Lemma 1 requires only that the *joiner* stays)."""
        system = make_system(n=10, seed=3)
        system.spawn_joiner()
        join = system.history.joins()[0]
        system.run_for(DELTA + 0.5)
        # Everyone except the writer leaves mid-inquiry.
        for pid in system.seed_pids[1:]:
            system.leave(pid)
        system.run_for(3 * DELTA)
        assert join.done  # terminated regardless
        # It adopted the writer's value (the only reply that arrived).
        assert join.result.value == "v0"

    def test_es_join_blocks_when_repliers_vanish(self):
        """The ES join is quorum-based: losing the majority blocks it —
        exactly the liveness/safety trade Theorem 2 is about."""
        system = make_system(protocol="es", n=11, seed=3)
        system.spawn_joiner()
        join = system.history.joins()[0]
        for pid in system.seed_pids[:7]:
            system.leave(pid)
        system.run_for(20 * DELTA)
        assert join.pending


class TestChurnWithFailures:
    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_randomized_churn_plus_targeted_kills(self, seed):
        """Random churn plus killing the newest member every 20 ticks."""
        system = make_system(n=20, seed=seed, trace=False)
        system.attach_churn(rate=0.02)
        system.write("v1")
        for t in range(20, 101, 20):
            system.run_until(float(t))
            present = [
                p.pid
                for p in system.membership.processes()
                if p.left_at is None and p.pid != system.writer_pid
            ]
            newest = max(present, key=lambda pid: system.membership.process(pid).entered_at)
            system.leave(newest)
            if system.active_pids():
                system.read(system.active_pids()[-1])
        system.run_for(4 * DELTA)
        assert system.check_safety().is_safe
        assert system.check_liveness().is_live
