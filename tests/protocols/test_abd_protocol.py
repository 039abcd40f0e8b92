"""Tests for the static ABD baseline."""

import pytest

from repro.core.register import BOTTOM
from repro.sim.errors import ConfigError
from tests.conftest import make_system

DELTA = 5.0


class TestStaticOperation:
    def test_write_then_read(self, abd_system):
        write = abd_system.write("v1")
        abd_system.run_for(4 * DELTA)
        assert write.done
        handle = abd_system.read(abd_system.seed_pids[4])
        abd_system.run_for(4 * DELTA)
        assert handle.done
        assert handle.result == "v1"

    def test_read_pays_two_phases(self, abd_system):
        before = abd_system.network.sent_count
        handle = abd_system.read(abd_system.seed_pids[4])
        abd_system.run_for(4 * DELTA)
        assert handle.done
        # Phase 1: n queries + >= majority replies; phase 2: n
        # write-backs + >= majority acks.  At least 2n messages total.
        assert abd_system.network.sent_count - before >= 2 * 10

    def test_majority_definition(self, abd_system):
        node = abd_system.node(abd_system.seed_pids[0])
        assert node.majority == 6
        assert node.is_replica

    def test_atomicity_with_write_back(self, abd_system):
        """Single-writer ABD with read write-back is atomic, not merely
        regular: sequential reads never invert."""
        abd_system.write("v1")
        for _ in range(4):
            abd_system.read(abd_system.seed_pids[3])
            abd_system.run_for(2 * DELTA)
            abd_system.read(abd_system.seed_pids[7])
            abd_system.run_for(2 * DELTA)
        abd_system.run_for(4 * DELTA)
        report = abd_system.check_atomicity()
        assert report.is_atomic

    def test_missing_universe_rejected(self, engine):
        from repro.core.register import NodeContext
        from repro.protocols.abd import AbdRegisterNode

        ctx = NodeContext(
            engine=engine,
            network=None,
            broadcast=None,
            trace=None,
            n=3,
            delta=1.0,
        )
        node = AbdRegisterNode("p1", ctx)
        with pytest.raises(ConfigError):
            node.universe

    def test_universe_is_cached_only_once_installed(self, engine):
        """Before the runtime installs the universe every accessor
        raises the same ``ConfigError`` (nothing empty is cached);
        afterwards the universe is fixed, whatever ``extra`` says."""
        from repro.core.register import NodeContext
        from repro.protocols.abd import UNIVERSE_KEY, AbdRegisterNode

        ctx = NodeContext(
            engine=engine, network=None, broadcast=None, trace=None, n=3, delta=1.0
        )
        node = AbdRegisterNode("p1", ctx)
        late = AbdRegisterNode("p9", ctx)
        for installed in (None, ()):
            if installed is not None:
                ctx.extra[UNIVERSE_KEY] = installed
            for accessor in ("universe", "majority", "is_replica"):
                with pytest.raises(ConfigError, match="abd_universe"):
                    getattr(node, accessor)
        ctx.extra[UNIVERSE_KEY] = ["p1", "p2", "p3"]
        assert node.universe == ("p1", "p2", "p3")
        assert node.majority == 2
        assert node.is_replica and not late.is_replica
        ctx.extra[UNIVERSE_KEY] = ("p9",)
        assert node.universe == ("p1", "p2", "p3")
        assert node.is_replica and not late.is_replica


class TestAnswersFindTheirRound:
    """An answer probes its tracker under the message's key as it
    stands; a miss is the cold path, which still resolves the key."""

    def test_an_answer_under_an_unknown_key_raises_the_named_error(self):
        from repro.protocols.abd import AbdAck, AbdQueryReply, AbdWriteBackAck

        system = make_system(protocol="abd", keys=2)
        node = system.node(system.seed_pids[1])
        for handler, msg in (
            (node.on_abdack, AbdAck(1, "nope")),
            (node.on_abdqueryreply, AbdQueryReply(1, "v", 1, "nope")),
            (node.on_abdwritebackack, AbdWriteBackAck(1, "nope")),
        ):
            with pytest.raises(KeyError, match="unknown register key 'nope'"):
                handler("p0002", msg)

    def test_a_none_key_names_the_default_keys_round(self):
        from repro.protocols.abd import AbdQueryReply

        system = make_system(protocol="abd", keys=2)
        node = system.node(system.seed_pids[1])
        default = node.space.resolve(None)
        node.on_abdqueryreply("p0002", AbdQueryReply(0, "v", 1, None))
        assert not node._queries  # nobody collecting: nothing built
        phase = node._queries.open(default, node.majority)
        node.on_abdqueryreply("p0002", AbdQueryReply(0, "v", 1, None))
        assert phase.best_for(default) == ("v", 1)


    def test_a_reply_after_settle_is_not_recorded_and_a_reoffer_keeps_the_max(self):
        from repro.protocols.abd import AbdQueryReply

        system = make_system(protocol="abd")
        node = system.node(system.seed_pids[1])
        key = node.space.resolve(None)
        phase = node._queries.open(key, node.majority)
        phase.request = 1
        node.on_abdqueryreply("p0002", AbdQueryReply(1, "v", 3, key))
        node.on_abdqueryreply("p0002", AbdQueryReply(1, "older", 1, key))
        assert phase._offers == {"p0002": ()}  # counted once, no entry kept
        assert phase.best_for(key) == ("v", 3)
        # A tie on sn goes to the greater sender, in either arrival order.
        node.on_abdqueryreply("p0005", AbdQueryReply(1, "tie", 3, key))
        node.on_abdqueryreply("p0001", AbdQueryReply(1, "lost", 3, key))
        assert phase.best_for(key) == ("tie", 3)
        phase.settle()
        node.on_abdqueryreply("p0003", AbdQueryReply(1, "newer", 9, key))
        assert phase.senders() == ("p0002", "p0005", "p0001")
        assert phase.best_for(key) == ("tie", 3)

    def test_completed_rounds_counted_their_quorum_and_no_more(self, abd_system):
        node = abd_system.node(abd_system.writer_pid)
        write = abd_system.write("v1")
        abd_system.run_for(4 * DELTA)
        read = abd_system.read(node.pid)
        abd_system.run_for(4 * DELTA)
        assert write.done and read.done and read.result == "v1"
        key = node.space.resolve(None)
        for tracker in (node._writes, node._queries, node._writebacks):
            phase = tracker[key]
            assert not phase.active and len(phase.senders()) == node.majority


class TestNewcomers:
    def test_join_is_trivial_and_instant(self, abd_system):
        pid = abd_system.spawn_joiner()
        join = abd_system.history.joins()[0]
        assert join.done
        assert join.latency == 0.0
        assert abd_system.node(pid).is_active

    def test_newcomer_is_not_a_replica(self, abd_system):
        pid = abd_system.spawn_joiner()
        abd_system.run_for(1.0)
        assert not abd_system.node(pid).is_replica

    def test_newcomer_reads_via_the_universe(self, abd_system):
        abd_system.write("v1")
        abd_system.run_for(4 * DELTA)
        pid = abd_system.spawn_joiner()
        abd_system.run_for(1.0)
        handle = abd_system.read(pid)
        abd_system.run_for(4 * DELTA)
        assert handle.done
        assert handle.result == "v1"

    def test_newcomer_holds_bottom_until_it_reads(self, abd_system):
        pid = abd_system.spawn_joiner()
        abd_system.run_for(1.0)
        assert abd_system.node(pid).register_value is BOTTOM


class TestChurnCollapse:
    def test_operations_block_once_majority_of_universe_left(self):
        system = make_system(protocol="abd", n=10, seed=3)
        # Remove 5 of the 10 replicas: majority (6) is unreachable.
        for pid in system.seed_pids[1:6]:
            system.leave(pid)
        write = system.write("vx")
        read = system.read(system.seed_pids[7])
        system.run_for(20 * DELTA)
        assert write.pending
        assert read.pending

    def test_operations_survive_minority_loss(self):
        system = make_system(protocol="abd", n=10, seed=3)
        for pid in system.seed_pids[1:5]:  # 4 < half
            system.leave(pid)
        write = system.write("vx")
        system.run_for(6 * DELTA)
        assert write.done
        read = system.read(system.seed_pids[7])
        system.run_for(6 * DELTA)
        assert read.done
        assert read.result == "vx"
