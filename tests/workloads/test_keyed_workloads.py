"""Keyed workloads: key pickers, plan stamping, per-key serialization,
and the explorer's key-count axis."""

import random

import pytest

from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.sim.errors import ExperimentError
from repro.workloads.explorer import ScenarioSpec, run_scenario, scenario_matrix
from repro.workloads.generators import (
    assign_keys,
    make_key_picker,
    read_heavy_plan,
    uniform_key_picker,
    zipf_key_picker,
)
from repro.workloads.schedule import ReadOp, WorkloadDriver, WriteOp

KEYS = ("k0", "k1", "k2", "k3")


class TestKeyPickers:
    def test_uniform_covers_every_key(self):
        picker = uniform_key_picker(KEYS, random.Random(1))
        drawn = {picker() for _ in range(200)}
        assert drawn == set(KEYS)

    def test_uniform_is_reproducible(self):
        a = uniform_key_picker(KEYS, random.Random(7))
        b = uniform_key_picker(KEYS, random.Random(7))
        assert [a() for _ in range(50)] == [b() for _ in range(50)]

    def test_zipf_skews_toward_the_head(self):
        picker = zipf_key_picker(KEYS, random.Random(3), exponent=1.2)
        counts = {key: 0 for key in KEYS}
        for _ in range(2000):
            counts[picker()] += 1
        assert counts["k0"] > counts["k1"] > counts["k3"]
        assert counts["k3"] > 0  # the tail is cold, not dead

    def test_zipf_exponent_zero_is_uniformish(self):
        picker = zipf_key_picker(KEYS, random.Random(3), exponent=0.0)
        counts = {key: 0 for key in KEYS}
        for _ in range(4000):
            counts[picker()] += 1
        assert max(counts.values()) < 2 * min(counts.values())

    def test_named_distributions(self):
        assert make_key_picker("uniform", KEYS, random.Random(0))() in KEYS
        assert make_key_picker("zipf", KEYS, random.Random(0))() in KEYS
        with pytest.raises(ExperimentError):
            make_key_picker("pareto", KEYS, random.Random(0))

    def test_empty_keys_rejected(self):
        with pytest.raises(ExperimentError):
            uniform_key_picker((), random.Random(0))
        with pytest.raises(ExperimentError):
            zipf_key_picker((), random.Random(0))

    def test_assign_keys_stamps_every_op_in_order(self):
        plan = read_heavy_plan(
            start=0.0, end=50.0, write_period=10.0, read_rate=0.5,
            rng=random.Random(5),
        )
        keyed = assign_keys(plan, uniform_key_picker(KEYS, random.Random(9)))
        assert len(keyed) == len(plan)
        assert all(op.key in KEYS for op in keyed)
        assert [op.time for op in keyed] == [op.time for op in plan]


class TestPerKeyWriteSerialization:
    def test_writes_to_different_keys_may_overlap(self):
        """The driver serializes writes per key, not globally: two keys
        can have in-flight writes at once, and the per-key partitioned
        history stays checkable."""
        system = DynamicSystem(
            SystemConfig(n=6, delta=5.0, protocol="sync", seed=4, keys=2)
        )
        driver = WorkloadDriver(system)
        driver.install(
            [
                WriteOp(time=1.0, key="k0"),
                WriteOp(time=2.0, key="k1"),  # k0's write is still pending
                ReadOp(time=10.0, key="k0"),
                ReadOp(time=10.0, key="k1"),
            ]
        )
        system.run_until(20.0)
        system.close()
        assert driver.stats.writes_issued == 2
        assert driver.stats.writes_skipped == 0
        assert system.check_safety().is_safe

    def test_none_key_shares_the_default_keys_slot(self):
        """In a multi-key system ``key=None`` addresses the default key
        and must share its serialization slot — not a separate one."""
        system = DynamicSystem(
            SystemConfig(n=6, delta=5.0, protocol="sync", seed=4, keys=2)
        )
        driver = WorkloadDriver(system)
        driver.install(
            [
                WriteOp(time=1.0, key=None),  # resolves to k0
                WriteOp(time=2.0, key="k0"),  # within the first's δ window
            ]
        )
        system.run_until(20.0)
        system.close()
        assert driver.stats.writes_issued == 1
        assert driver.stats.writes_skipped == 1
        assert system.check_safety().is_safe

    def test_same_key_writes_stay_serialized(self):
        system = DynamicSystem(
            SystemConfig(n=6, delta=5.0, protocol="sync", seed=4, keys=2)
        )
        driver = WorkloadDriver(system)
        driver.install(
            [
                WriteOp(time=1.0, key="k0"),
                WriteOp(time=2.0, key="k0"),  # within the first's δ window
            ]
        )
        system.run_until(20.0)
        assert driver.stats.writes_issued == 1
        assert driver.stats.writes_skipped == 1


class TestExplorerKeyAxis:
    def test_matrix_grows_by_key_counts(self):
        base = dict(
            seed=0, protocol=("sync",), delay=("sync",), churn_rate=(0.0,),
            plan=("none",), seeds_per_combo=1, n=6, delta=5.0,
            horizon=60.0,
        )
        single = list(scenario_matrix(**base))
        keyed = list(scenario_matrix(**base, keys=(1, 4)))
        assert len(keyed) == 2 * len(single)
        assert [spec.keys for spec in keyed] == [1, 4]

    def test_keyed_scenario_round_trips_and_judges_per_key(self):
        spec = ScenarioSpec(
            protocol="sync", n=8, delta=5.0, delay="sync", churn_rate=0.02,
            seed=3, horizon=90.0, keys=3, key_dist="zipf",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        outcome = run_scenario(spec)
        assert outcome.safe
        assert "keys=3/zipf" in spec.label()

    def test_legacy_spec_dict_defaults_to_single_key(self):
        payload = ScenarioSpec().to_dict()
        del payload["keys"], payload["key_dist"]  # a pre-RegisterSpace artifact
        spec = ScenarioSpec.from_dict(payload)
        assert spec.keys == 1
        assert "keys" not in spec.label()

    def test_keys_one_cell_matches_pre_refactor_digest(self):
        """The keys=1 explorer cell must be byte-identical whether or
        not the key axis exists: same spec → same digest with keys
        explicitly 1 (the corpus-compat guarantee)."""
        base = ScenarioSpec(protocol="sync", churn_rate=0.02, seed=1)
        explicit = ScenarioSpec(
            protocol="sync", churn_rate=0.02, seed=1, keys=1, key_dist="zipf"
        )
        assert run_scenario(base).digest == run_scenario(explicit).digest
