"""Unit tests for the keyed RegisterSpace and per-key history views."""

import pytest

from repro.core.history import History
from repro.protocols.common import KeyedJoinResult
from repro.core.register import BOTTOM, SINGLE_KEY, SpaceTable, key_names
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.errors import ConfigError, HistoryError, ProcessError
from repro.sim.operations import settled_handle
from repro.workloads.generators import drive_read_heavy
from repro.workloads.schedule import WorkloadDriver
from tests.conftest import make_system


class TestKeyNames:
    def test_single_key_is_the_none_sentinel(self):
        assert key_names(1) == (SINGLE_KEY,) == (None,)

    def test_multi_key_names_are_stable(self):
        assert key_names(3) == ("k0", "k1", "k2")

    def test_zero_keys_rejected_by_name(self):
        with pytest.raises(ValueError, match="needs at least 1 key, got 0"):
            key_names(0)


class TestRegisterSpace:
    def test_cells_start_bottom(self):
        space = SpaceTable().space(key_names(2))
        for key in space.keys:
            assert space.value(key) is BOTTOM
            assert space.sequence(key) == -1

    def test_resolve_defaults_to_first_key(self):
        table = SpaceTable()
        single = table.space(key_names(1))
        assert single.resolve(None) is None
        multi = table.space(key_names(2))
        assert multi.resolve(None) == "k0"
        assert multi.resolve("k1") == "k1"
        with pytest.raises(KeyError, match="unknown register key 'nope'"):
            multi.resolve("nope")

    def test_a_duplicate_key_is_refused_by_name(self):
        # Two keys sharing one position would address one cell twice.
        with pytest.raises(ValueError, match="register key 'k0' appears twice"):
            SpaceTable().space(("k0", "k0"))
        with pytest.raises(ValueError, match="register key 'k1' appears twice"):
            SpaceTable().space(("k0", "k1", "k2", "k1"), ("v0", 0))

    def test_an_empty_key_tuple_is_refused_by_name(self):
        with pytest.raises(ValueError, match="needs at least one key"):
            SpaceTable().space(())

    def test_adopt_only_when_strictly_newer(self):
        space = SpaceTable().space(key_names(2))
        newer = space.adopt("k0", "v1", 3)
        assert newer is not space and space.snapshot("k0") == (BOTTOM, -1)
        assert newer.adopt("k0", "stale", 3) is newer
        assert newer.adopt("k0", "staler", 1) is newer
        assert newer.snapshot("k0") == ("v1", 3)
        assert newer.snapshot("k1") == (BOTTOM, -1)  # isolated per key

    def test_adoptions_of_one_write_land_on_the_writers_space(self):
        value = object()
        table = SpaceTable()
        blank = table.space(key_names(2))
        writer = blank.install("k0", value, 4)
        # Each adopter builds nothing: the content is the writer's.
        assert blank.adopt("k0", value, 4) is writer
        assert blank.adopt("k0", value, 4) is writer

    def test_the_adopters_of_one_space_share_one_successor(self):
        value = object()
        shared = SpaceTable().space(key_names(2), ("v0", 0))
        first, second = shared.adopt("k1", value, 4), shared.adopt("k1", value, 4)
        assert first is second and shared.snapshot("k1") == ("v0", 0)
        # An admitting adoption's successor (and its index copy) is
        # shared too; the shared index stays as it was.
        moved = first.adopt("moved", value, 1)
        assert first.adopt("moved", value, 1) is moved
        assert "moved" not in first._index and moved._index["moved"] == 2

    def test_single_key_adopters_share_the_writers_space(self):
        value = object()
        table = SpaceTable()
        seeded = table.space(key_names(1), ("v0", 0))
        writer = seeded.install(None, value, 1)
        blank = table.space(key_names(1))
        # Whatever each held before, a single-key adopter of the
        # written ⟨value, sn⟩ lands on the writer's successor.
        assert seeded.adopt(None, value, 1) is writer
        assert blank.adopt(None, value, 1) is writer
        assert seeded.adopt(None, value, 1) is writer

    def test_an_adoption_shares_no_cell_whose_value_or_sn_differs(self):
        table = SpaceTable()
        first = second = table.space(key_names(2))
        first = first.adopt("k0", "a", 3)
        # Same sn, another value; an equal but distinct value; same value,
        # another sn: each is a state of its own.
        second = second.adopt("k0", "b", 3)
        assert second.snapshot("k0") == ("b", 3) and second is not first
        first, second = first.adopt("k1", 1, 5), second.adopt("k1", 1.0, 5)
        assert type(second.value("k1")) is float
        assert first.adopt("k0", "b", 3) is first  # not newer
        third = table.space(key_names(2)).adopt("k0", "b", 3).adopt("k1", 1, 5)
        assert third is not second and type(third.value("k1")) is int
        second = second.adopt("k0", "b", 4)
        assert second.snapshot("k0") == ("b", 4)
        assert first.snapshot("k0") == ("a", 3)

    def test_adopt_all_takes_each_newer_key_in_one_successor(self):
        space = SpaceTable().space(key_names(3), ("v0", 2))
        best = {"k0": ("new", 3), "k1": ("stale", 2), "x": ("other", 9)}
        joined = space.adopt_all(best)
        # The guard is per key, a key the space lacks is not admitted,
        # and the prior is untouched.
        assert joined.entries() == (
            ("k0", "new", 3), ("k1", "v0", 2), ("k2", "v0", 2)
        )
        assert joined._index is space._index and space.value("k0") == "v0"
        # Nothing newer: the very space.
        assert space.adopt_all({"k1": ("stale", 2)}) is space
        assert space.adopt_all({}) is space

    def test_joiners_that_fold_equal_contents_share_one_space(self):
        value = object()
        blank = SpaceTable().space(key_names(2))
        first = blank.adopt_all({"k0": (value, 4), "k1": ("v0", 0)})
        # Another joiner's fold builds its own offer tuples.
        assert blank.adopt_all({"k0": (value, 4), "k1": ("v0", 0)}) is first
        # A fold that ends where an adoption ended lands there.
        written = first.install("k1", 1, 1)
        assert blank.adopt_all({"k0": (value, 4), "k1": (1, 1)}) is written
        # An equal but distinct value is a space of its own.
        other = blank.adopt_all({"k0": (value, 4), "k1": (1.0, 1)})
        assert other is not written and type(other.value("k1")) is float

    def test_entries_in_key_order(self):
        space = SpaceTable().space(key_names(3), ("v0", 0)).install("k1", "v1", 4)
        assert space.entries() == (
            ("k0", "v0", 0),
            ("k1", "v1", 4),
            ("k2", "v0", 0),
        )


class TestSpaceTable:
    def test_two_systems_share_no_space(self):
        first, second = (DynamicSystem(SystemConfig(n=3, seed=1)) for _ in range(2))
        assert first._ctx.spaces is not second._ctx.spaces
        seeds = (first.node(first.seed_pids[0]), second.node(second.seed_pids[0]))
        assert seeds[0].space is not seeds[1].space
        joiners = (first.node(first.spawn_joiner()), second.node(second.spawn_joiner()))
        assert joiners[0].space is not joiners[1].space
        assert joiners[0].space is first.node(first.spawn_joiner()).space

    def test_an_entry_lives_as_long_as_its_space(self):
        table = SpaceTable()
        space = table.space(key_names(2))
        written = space.install("k0", object(), 1)
        assert len(table) == 2
        del written
        assert len(table) == 1 and table.space(key_names(2)) is space


class TestSystemConfigKeys:
    def test_default_is_the_single_register(self):
        system = DynamicSystem(SystemConfig(n=3, seed=1))
        assert system.keys == (None,)
        node = system.node(system.seed_pids[0])
        assert len(node.space) == 1
        assert node.register_value == "v0"

    def test_keyed_system_seeds_every_key(self):
        system = DynamicSystem(SystemConfig(n=3, seed=1, keys=4))
        assert system.keys == ("k0", "k1", "k2", "k3")
        node = system.node(system.seed_pids[0])
        assert node.space.entries() == tuple(
            (key, "v0", 0) for key in system.keys
        )

    def test_invalid_key_count_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(n=3, keys=0)


class TestKeyedHistoryViews:
    def _keyed_system(self):
        system = DynamicSystem(
            SystemConfig(n=4, delta=5.0, protocol="sync", seed=2, keys=2)
        )
        system.write("a1", key="k0")
        system.run_for(6.0)
        system.write("b1", key="k1")
        system.run_for(6.0)
        system.read(system.seed_pids[1], key="k0")
        system.read(system.seed_pids[2], key="k1")
        system.spawn_joiner()
        system.run_for(20.0)
        system.close()
        return system

    def test_keys_lists_named_keys_sorted(self):
        history = self._keyed_system().history
        assert history.keys() == ["k0", "k1"]

    def test_sub_history_filters_reads_and_writes(self):
        history = self._keyed_system().history
        sub = history.sub_history("k0")
        assert [op.argument for op in sub.writes()] == ["a1"]
        assert all(op.key == "k0" for op in sub.reads())
        assert sub.horizon == history.horizon

    def test_sub_history_join_view_exposes_per_key_adoption(self):
        history = self._keyed_system().history
        for key, expected in (("k0", "a1"), ("k1", "b1")):
            (join,) = history.sub_history(key).joins()
            assert join.done
            assert join.result.value == expected
            assert join.op_id == history.joins()[0].op_id

    def test_a_judged_key_a_join_never_installed_fails_loudly(self):
        history = self._keyed_system().history
        (join,) = history.joins()
        adoptions = dict(join.result.adoptions)
        del adoptions["k1"]
        narrow = History(history.initial_value)
        for op in history:
            if op.op_id == join.op_id:
                op = settled_handle(
                    op.op_id, op.kind, op.process_id, op.invoke_time,
                    op.response_time, None, None, KeyedJoinResult(adoptions), None,
                )
            narrow.record_operation(op)
        # Partitioning builds every judged key's sub-history at once.
        with pytest.raises(HistoryError, match=rf"join {join.op_id} .* key 'k1'"):
            narrow.sub_history("k1")

    def test_sub_history_is_one_object_while_closed(self):
        from repro.sim.operations import OperationHandle

        history = self._keyed_system().history
        sub = history.sub_history("k0")
        assert history.sub_history("k0") is sub
        assert history.sub_history("k1") is not sub
        # A key no read or write addressed sees the joins only.
        assert [op.kind for op in history.sub_history("k9")] == ["join"]
        history.record_operation(OperationHandle("read", "p", 99.0, key="k0"))
        fresh = history.sub_history("k0")
        assert fresh is not sub
        assert len(fresh.reads()) == len(sub.reads()) + 1

    def test_keyed_safety_then_atomicity_judges_each_key_once(self, monkeypatch):
        from repro.core.checker import RegularityChecker

        system = DynamicSystem(
            SystemConfig(n=4, delta=5.0, protocol="sync", seed=3, keys=4)
        )
        for key in system.keys:
            system.write(f"{key}-1", key=key)
            system.run_for(6.0)
            for pid in system.seed_pids:
                system.read(pid, key=key)
        system.run_for(6.0)
        system.close()
        judged = []
        original = RegularityChecker._judge_reads

        def counting(checker):
            judged.append(checker.history)
            return original(checker)

        monkeypatch.setattr(RegularityChecker, "_judge_reads", counting)
        assert system.check_safety().checked_count == 16
        assert system.check_atomicity().is_atomic
        assert len(judged) == 4

    def test_unkeyed_history_keys_is_none_singleton(self):
        history = History("v0")
        assert history.keys() == [None]


class TestRegisterNodeRefusals:
    """The register layer's refusals, asserted by their messages."""

    def test_a_second_join_is_refused(self):
        system = make_system(n=3)
        seed = system.node(system.seed_pids[0])
        with pytest.raises(ProcessError, match=f"{seed.pid} invoked join twice"):
            seed.join()
        # A joiner still inside its join is refused too: a second join
        # body would consume the first one's phase.
        joiner = system.node(system.spawn_joiner())
        with pytest.raises(ProcessError, match=f"{joiner.pid} invoked join twice"):
            joiner.join()
        system.run_for(20.0)
        assert joiner.is_active

    @pytest.mark.parametrize("protocol", ["sync", "es", "abd"])
    def test_a_read_before_the_join_returns_is_refused(self, protocol):
        # sync's read is its own override; es and abd inherit RegisterNode's.
        system = make_system(n=5, protocol=protocol)
        joiner = system.node(system.spawn_joiner())
        if protocol == "abd":
            joiner.depart()  # abd's join returns at once: a departed node is inactive too
        with pytest.raises(ProcessError, match="invoked read before its join returned"):
            joiner.read()

    def test_a_write_before_the_join_returns_is_refused(self):
        system = make_system(n=5)
        joiner = system.node(system.spawn_joiner())
        with pytest.raises(ProcessError, match="invoked write before its join returned"):
            joiner.write("early")


class TestTheTableIsBounded:
    """A system's space table holds exactly the states its nodes hold.
    The present nodes hold a state or two however long the run; a
    departed node keeps its last state readable, so the table holds at
    most one more state than there were writes, and no cap is needed."""

    @staticmethod
    def _run(horizon):
        system = DynamicSystem(SystemConfig(n=20, delta=5.0, seed=4, trace=False))
        system.attach_churn(rate=0.02, min_stay=15.0)
        drive_read_heavy(
            system, WorkloadDriver(system), horizon, horizon - 15.0, 10.0, 1.0, "plan"
        )
        table = system._ctx.spaces
        held = {id(node.space) for node in system.membership.processes()}
        present = {id(node.space) for node in system.membership.present_processes()}
        assert sorted(id(entry()) for entry in table.values()) == sorted(held)
        return len(table), len(present), len(system.history.writes())

    def test_at_one_and_four_horizons(self):
        # (table entries, states the present nodes hold, writes): measured
        # (8, 2, 7) at horizon 100 and (38, 2, 37) at 400.
        for entries, present, writes in (self._run(100.0), self._run(400.0)):
            assert present <= 2 and entries <= writes + 1
