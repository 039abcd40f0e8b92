"""Unit tests for the keyed RegisterSpace and per-key history views."""

import pytest

from repro.core.history import History
from repro.core.register import BOTTOM, RegisterSpace, SINGLE_KEY, key_names
from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.errors import ConfigError


class TestKeyNames:
    def test_single_key_is_the_none_sentinel(self):
        assert key_names(1) == (SINGLE_KEY,) == (None,)

    def test_multi_key_names_are_stable(self):
        assert key_names(3) == ("k0", "k1", "k2")

    def test_zero_keys_rejected(self):
        with pytest.raises(ValueError):
            key_names(0)


class TestRegisterSpace:
    def test_cells_start_bottom(self):
        space = RegisterSpace(key_names(2))
        for key in space.keys:
            assert space.value(key) is BOTTOM
            assert space.sequence(key) == -1

    def test_resolve_defaults_to_first_key(self):
        single = RegisterSpace(key_names(1))
        assert single.resolve(None) is None
        multi = RegisterSpace(key_names(2))
        assert multi.resolve(None) == "k0"
        assert multi.resolve("k1") == "k1"
        with pytest.raises(KeyError):
            multi.resolve("nope")

    def test_a_duplicate_key_is_refused_by_name(self):
        # Two keys sharing one position would address one cell twice.
        with pytest.raises(ValueError, match="register key 'k0' appears twice"):
            RegisterSpace(("k0", "k0"))
        with pytest.raises(ValueError, match="register key 'k1' appears twice"):
            RegisterSpace(("k0", "k1", "k2", "k1"), ("v0", 0))

    def test_adopt_only_when_strictly_newer(self):
        space = RegisterSpace(key_names(2))
        assert space.adopt("k0", "v1", 3)
        assert not space.adopt("k0", "stale", 3)
        assert not space.adopt("k0", "staler", 1)
        assert space.snapshot("k0") == ("v1", 3)
        assert space.snapshot("k1") == (BOTTOM, -1)  # isolated per key

    def test_back_to_back_adoptions_of_one_cell_share_it(self):
        value = object()
        first, second, writer = (RegisterSpace(key_names(2)) for _ in range(3))
        writer.install("k0", value, 4)
        assert first.adopt("k0", value, 4) and second.adopt("k0", value, 4)
        assert first[0] is second[0] is writer[0]
        assert first.adopt("k1", value, 4)
        assert first[1] is first[0]  # the same ⟨value, sn⟩ on another key

    def test_an_adoption_shares_no_cell_whose_value_or_sn_differs(self):
        first, second = RegisterSpace(key_names(2)), RegisterSpace(key_names(2))
        assert first.adopt("k0", "a", 3)
        # Same sn, another value; an equal but distinct value; same value,
        # another sn: each is a cell of its own.
        assert second.adopt("k0", "b", 3)
        assert second.snapshot("k0") == ("b", 3)
        assert first.adopt("k1", 1, 5) and second.adopt("k1", 1.0, 5)
        assert type(second.value("k1")) is float
        assert second.adopt("k0", "b", 4) and second.snapshot("k0") == ("b", 4)
        assert first.snapshot("k0") == ("a", 3)

    def test_bump_is_per_key(self):
        space = RegisterSpace(key_names(2))
        assert space.bump("k0") == 0
        assert space.bump("k0") == 1
        assert space.bump("k1") == 0

    def test_entries_in_key_order(self):
        space = RegisterSpace(key_names(3), ("v0", 0))
        space.install("k1", "v1", 4)
        assert space.entries() == (
            ("k0", "v0", 0),
            ("k1", "v1", 4),
            ("k2", "v0", 0),
        )


class TestSystemConfigKeys:
    def test_default_is_the_single_register(self):
        system = DynamicSystem(SystemConfig(n=3, seed=1))
        assert system.keys == (None,)
        node = system.node(system.seed_pids[0])
        assert node.space.is_single
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
