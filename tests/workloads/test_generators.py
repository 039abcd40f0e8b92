"""Unit tests for workload plan generators."""

import random

import pytest

from repro.sim.errors import ExperimentError
from repro.workloads.generators import (
    periodic_times,
    periodic_writes,
    poisson_reads,
    poisson_times,
    read_heavy_plan,
    write_heavy_plan,
)
from repro.workloads.schedule import ReadOp, WriteOp


@pytest.fixture
def rng():
    return random.Random(7)


class TestPeriodicTimes:
    def test_spacing(self):
        assert periodic_times(2.0, 3.0, 4) == [2.0, 5.0, 8.0, 11.0]

    def test_zero_count(self):
        assert periodic_times(0.0, 1.0, 0) == []

    def test_validation(self):
        with pytest.raises(ExperimentError):
            periodic_times(0.0, 0.0, 3)
        with pytest.raises(ExperimentError):
            periodic_times(0.0, 1.0, -1)


class TestPoissonTimes:
    def test_times_within_range(self, rng):
        times = poisson_times(10.0, 50.0, rate=0.5, rng=rng)
        assert all(10.0 < t < 50.0 for t in times)
        assert list(times) == sorted(times)

    def test_rate_controls_count(self, rng):
        sparse = poisson_times(0.0, 1000.0, 0.05, random.Random(1))
        dense = poisson_times(0.0, 1000.0, 0.5, random.Random(1))
        assert len(dense) > len(sparse)

    def test_zero_rate(self, rng):
        assert list(poisson_times(0.0, 100.0, 0.0, rng)) == []

    def test_validation(self, rng):
        with pytest.raises(ExperimentError):
            poisson_times(0.0, 10.0, -1.0, rng)
        with pytest.raises(ExperimentError):
            poisson_times(10.0, 0.0, 1.0, rng)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteParametersAreRefusedByName:
    """Each entry point called directly: the parameter and the value
    are in the message.  ``rng=None`` because nothing may be drawn
    first — past validation a non-finite rate draws forever
    (``expovariate(inf)`` is 0.0, and ``nan >= end`` is false)."""

    @pytest.mark.parametrize(
        "name, value", [("rate", INF), ("rate", NAN), ("end", INF), ("start", NAN)]
    )
    def test_poisson_times(self, name, value):
        params = dict(start=0.0, end=10.0, rate=1.0) | {name: value}
        with pytest.raises(ExperimentError, match=f"{name} must be finite, got"):
            poisson_times(rng=None, **params)

    @pytest.mark.parametrize(
        "name, value", [("period", NAN), ("period", INF), ("start", NAN)]
    )
    def test_periodic_times(self, name, value):
        params = dict(start=0.0, period=2.0, count=2) | {name: value}
        with pytest.raises(ExperimentError, match=f"{name} must be finite, got"):
            periodic_times(**params)

    @pytest.mark.parametrize(
        "name, value, named",
        [
            ("write_period", 0.0, "write_period must be positive, got 0.0"),
            ("write_period", NAN, "write_period must be finite, got nan"),
            ("write_period", INF, "write_period must be finite, got inf"),
            ("end", INF, "end must be finite, got inf"),
            ("read_rate", INF, "rate must be finite, got inf"),
        ],
    )
    def test_read_heavy_plan(self, name, value, named):
        params = dict(start=5.0, end=60.0, write_period=10.0, read_rate=1.0)
        with pytest.raises(ExperimentError, match=named):
            read_heavy_plan(rng=None, **(params | {name: value}))

    @pytest.mark.parametrize(
        "name, value, named",
        [
            ("write_period", NAN, "write_period must be finite, got nan"),
            ("write_period", INF, "write_period must be finite, got inf"),
            ("end", INF, "end must be finite, got inf"),
            ("end", NAN, "end must be finite, got nan"),
            ("start", NAN, "start must be finite, got nan"),
            ("end", 5.0, "end 5.0 must exceed start 5.0"),
            ("end", 1.0, "end 1.0 must exceed start 5.0"),
            ("reads_per_write", -1, "reads_per_write must be non-negative, got -1"),
        ],
    )
    def test_write_heavy_plan(self, name, value, named):
        params = dict(start=5.0, end=60.0, write_period=10.0, reads_per_write=1)
        with pytest.raises(ExperimentError, match=named):
            write_heavy_plan(rng=None, **(params | {name: value}))


class TestPlans:
    def test_periodic_writes_carry_writer(self):
        plan = periodic_writes(0.0, 5.0, 3, writer="p0001")
        assert all(isinstance(op, WriteOp) for op in plan)
        assert all(op.writer == "p0001" for op in plan)
        assert all(op.value is None for op in plan)  # auto-unique values

    def test_poisson_reads_have_no_fixed_reader(self, rng):
        plan = poisson_reads(0.0, 100.0, 0.3, rng)
        assert all(isinstance(op, ReadOp) for op in plan)
        assert all(op.reader is None for op in plan)

    def test_read_heavy_plan_is_sorted_and_read_heavy(self, rng):
        plan = read_heavy_plan(0.0, 200.0, write_period=20.0, read_rate=1.0, rng=rng)
        times = [op.time for op in plan]
        assert times == sorted(times)
        reads = sum(isinstance(op, ReadOp) for op in plan)
        writes = sum(isinstance(op, WriteOp) for op in plan)
        assert reads > 5 * writes

    def test_read_heavy_plan_validation(self, rng):
        with pytest.raises(ExperimentError):
            read_heavy_plan(10.0, 10.0, 1.0, 1.0, rng)

    def test_write_heavy_plan_interleaves(self, rng):
        plan = write_heavy_plan(
            0.0, 100.0, write_period=10.0, reads_per_write=2, rng=rng
        )
        writes = sum(isinstance(op, WriteOp) for op in plan)
        reads = sum(isinstance(op, ReadOp) for op in plan)
        assert writes == 10
        assert reads <= 20
        assert [op.time for op in plan] == sorted(op.time for op in plan)

    @pytest.mark.parametrize("period", [0.0, -1.0])
    def test_write_heavy_plan_period_must_be_positive(self, period):
        # Past validation such a period never advances the write clock:
        # the build would loop forever.
        with pytest.raises(ExperimentError, match="write_period must be positive"):
            write_heavy_plan(0.0, 100.0, period, 2, rng=None)

    def test_write_heavy_plan_without_reads_is_write_only(self, rng):
        plan = write_heavy_plan(5.0, 60.0, 10.0, 0, rng)
        assert [type(op) for op in plan] == [WriteOp] * 6


class TestDriveReadHeavy:
    """The one read-heavy drive: draw, key, install, run, close."""

    @staticmethod
    def _single(keys=1):
        from repro.runtime.config import SystemConfig
        from repro.runtime.system import DynamicSystem
        from repro.workloads.schedule import WorkloadDriver

        system = DynamicSystem(SystemConfig(n=8, seed=3, trace=False, keys=keys))
        system.attach_churn(rate=0.01, min_stay=15.0)
        return system, WorkloadDriver(system)

    @staticmethod
    def _cluster():
        from repro.cluster.config import ClusterConfig
        from repro.cluster.system import ClusterSystem
        from repro.workloads.schedule import WorkloadDriver

        cluster = ClusterSystem(ClusterConfig(shards=2, keys=4, n=12, seed=3))
        return cluster, WorkloadDriver(cluster)

    @pytest.mark.parametrize("kind", ["single", "keyed", "cluster"])
    def test_is_the_hand_assembled_run(self, kind):
        from repro.cluster.history import cluster_digest
        from repro.core.history import operation_digest
        from repro.workloads.cluster import shard_skewed_key_picker
        from repro.workloads.generators import (
            assign_keys,
            drive_read_heavy,
            make_key_picker,
        )

        def build():
            if kind == "cluster":
                system, driver = self._cluster()
                picker = shard_skewed_key_picker(system, system.rng.stream("t.keys"))
                return system, driver, picker, cluster_digest
            system, driver = self._single(keys=4 if kind == "keyed" else 1)
            picker = (
                make_key_picker("zipf", system.keys, system.rng.stream("t.keys"))
                if kind == "keyed"
                else None
            )
            return system, driver, picker, operation_digest

        system, driver, picker, digest = build()
        driven = drive_read_heavy(
            system, driver, 60.0, 45.0, 10.0, 0.5, "t.plan", picker
        )
        assert driven is system.history
        system, driver, picker, _ = build()
        plan = read_heavy_plan(5.0, 45.0, 10.0, 0.5, system.rng.stream("t.plan"))
        if picker is not None:
            plan = assign_keys(plan, picker)
        driver.install(plan)
        system.run_until(60.0)
        assert digest(driven) == digest(system.close())
        assert driver.stats.reads_issued > 0

    @pytest.mark.parametrize("horizon, end", [(0.0, 6.0), (3.0, 6.0), (40.0, 40.5)])
    def test_a_plan_past_the_horizon_is_refused_by_name(self, horizon, end):
        from repro.workloads.generators import drive_read_heavy

        system, driver = self._single()
        with pytest.raises(
            ExperimentError,
            match=rf"the plan ends at {end!r}, past the horizon {horizon!r}",
        ):
            drive_read_heavy(system, driver, horizon, end, 10.0, 0.5, "t.plan")
        assert system.engine.now == 0.0 and driver.stats.reads_issued == 0
