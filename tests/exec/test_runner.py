"""Unit tests for the Runner: ordering, worker counts, serial parity."""

import gc
from concurrent.futures import BrokenExecutor

import pytest

from repro.exec import Runner, RunSpec, execute, run_specs
from repro.exec import runner as runner_module
from repro.sim.rng import derive_seed

#: A cheap, deterministic, picklable cell: derive_seed itself.
_KIND = "repro.sim.rng:derive_seed"


def _specs(count: int) -> list[RunSpec]:
    return [
        RunSpec(kind=_KIND, params={"root_seed": 9, "name": f"cell:{i}"})
        for i in range(count)
    ]


class TestRunner:
    def test_execute_runs_one_spec_in_process(self):
        (spec,) = _specs(1)
        assert execute(spec) == derive_seed(9, "cell:0")

    def test_results_come_back_in_spec_order(self):
        expected = [derive_seed(9, f"cell:{i}") for i in range(12)]
        assert Runner(workers=1).map(_specs(12)) == expected
        assert Runner(workers=4).map(_specs(12)) == expected

    def test_parallel_equals_serial(self):
        specs = _specs(9)
        assert Runner(workers=3).map(specs) == Runner(workers=1).map(specs)

    def test_single_spec_short_circuits_to_serial(self):
        # min(workers, 1 spec) == 1: no pool is spun up for one cell.
        assert Runner(workers=8).map(_specs(1)) == [derive_seed(9, "cell:0")]

    def test_empty_spec_list(self):
        assert Runner(workers=4).map([]) == []

    def test_workers_floor_is_one(self):
        assert Runner(workers=0).workers == 1
        assert Runner(workers=-3).workers == 1

    def test_default_workers_is_positive(self):
        assert Runner().workers >= 1

    def test_run_specs_convenience_matches_runner(self):
        specs = _specs(5)
        assert run_specs(specs, workers=2) == Runner(workers=2).map(specs)

    def test_pool_is_reused_across_map_calls(self):
        runner = Runner(workers=2)
        runner.map(_specs(4))
        pool = runner_module._POOLS.get(2)
        assert pool is not None
        runner.map(_specs(4))
        assert runner_module._POOLS.get(2) is pool

    def test_differently_sized_grids_share_one_pool(self):
        # The cache is keyed by the configured worker count, not by
        # min(workers, len(specs)): a battery of varied grids pays
        # worker startup once.
        runner = Runner(workers=2)
        runner.map(_specs(2))
        runner.map(_specs(7))
        runner.map(_specs(3))
        assert 2 in runner_module._POOLS

    def test_cell_oserror_propagates_without_serial_fallback(self):
        # A cell's own OSError must come back as that error, not be
        # mistaken for a pool failure (which would discard the pool and
        # re-run the sweep serially).
        specs = [
            RunSpec(kind="os:stat", params={"path": "/no-such-path-anywhere"})
            for _ in range(3)
        ]
        runner = Runner(workers=2)
        with pytest.raises(FileNotFoundError):
            runner.map(specs)
        assert 2 in runner_module._POOLS  # healthy pool kept

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        """Environments without process support take the serial path."""

        class NoFork:
            def __init__(self, max_workers):
                raise OSError("fork denied")

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", NoFork)
        expected = [derive_seed(9, f"cell:{i}") for i in range(6)]
        with pytest.warns(RuntimeWarning, match="6 of 6 cells ran serially"):
            assert Runner(workers=3).map(_specs(6)) == expected

    def test_lazy_spawn_failure_falls_back_to_serial(self, monkeypatch):
        """Pools that break only at first submit still fall back."""
        from concurrent.futures.process import BrokenProcessPool

        class BreaksOnMap:
            def __init__(self, max_workers):
                pass

            def map(self, fn, specs, chunksize=1):
                raise BrokenProcessPool("workers never started")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", BreaksOnMap)
        expected = [derive_seed(9, f"cell:{i}") for i in range(6)]
        with pytest.warns(RuntimeWarning, match="6 of 6 cells ran serially"):
            assert Runner(workers=3).map(_specs(6)) == expected
        # The broken pool was discarded, not cached for the next call.
        assert runner_module._POOLS == {}

    def test_pool_breaking_mid_grid_reruns_only_the_missing_cells(
        self, monkeypatch
    ):
        """A pool that dies after k outcomes keeps them: the serial
        fallback computes cells k.. only, in spec order."""
        executed: list[str] = []

        def recording_execute(spec):
            executed.append(spec.params["name"])
            return derive_seed(**spec.params)

        class BreaksAfterThree:
            def __init__(self, max_workers):
                pass

            def map(self, fn, specs, chunksize=1):
                for spec in specs[:3]:
                    yield fn(spec)
                raise BrokenExecutor("a worker died")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", BreaksAfterThree)
        monkeypatch.setattr(runner_module, "execute", recording_execute)
        runner = Runner(workers=3)
        with pytest.warns(RuntimeWarning, match="5 of 8 cells ran serially"):
            outcomes = runner.map(_specs(8))
        assert outcomes == [derive_seed(9, f"cell:{i}") for i in range(8)]
        assert executed == [f"cell:{i}" for i in range(8)]  # each once, in order
        assert runner.fallbacks == 1
        assert runner_module._POOLS == {}


class TestCellBoundary:
    """A cell is one generation: the collector is paused throughout and
    one young collection at the end reclaims the dropped system."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_map_hands_the_collector_back_as_found(self, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            Runner(workers=1).map(_specs(3))
            assert gc.isenabled() is enabled
            with pytest.raises(FileNotFoundError):
                execute(RunSpec(kind="os:stat", params={"path": "/no-such-path"}))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_a_grid_of_dropped_systems_is_reclaimed_by_count(self):
        # Each cell builds and drives an n = 500 system and returns a
        # small outcome; the system it drops is one big reference cycle
        # (~20 k objects here) that only the cycle collector can free.
        # With the kernel's pauses but no collection at the cell
        # boundary this grid ends ~166 k tracked objects above where it
        # started.  No ``gc.collect()`` here: the boundary must do it.
        from repro.workloads.explorer import ScenarioSpec

        def grid(count: int) -> list[RunSpec]:
            return [
                RunSpec(
                    kind="scenario",
                    params=ScenarioSpec(
                        protocol="sync", n=500, churn_rate=0.01, horizon=40.0, seed=seed
                    ).to_dict(),
                )
                for seed in range(count)
            ]

        runner = Runner(workers=1)
        runner.map(grid(1))  # imports and per-class caches, once
        before = len(gc.get_objects())
        outcomes = runner.map(grid(8))
        grown = len(gc.get_objects()) - before
        assert len(outcomes) == 8
        assert grown < 2_000


class TestFallbackCounters:
    """Per-Runner fallbacks are fresh and resettable; the module-level
    ``fallback_count`` stays a process-wide aggregate."""

    pytestmark = pytest.mark.filterwarnings("ignore:process pool unavailable")

    @staticmethod
    def _pool_less(monkeypatch):
        class NoFork:
            def __init__(self, max_workers):
                raise OSError("fork denied")

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", NoFork)

    def test_per_runner_counter_counts_own_fallbacks_only(self, monkeypatch):
        self._pool_less(monkeypatch)
        monkeypatch.setattr(runner_module, "_FALLBACKS", 5)  # earlier sweeps
        runner = Runner(workers=3)
        assert runner.fallbacks == 0  # fresh despite process history
        runner.map(_specs(4))
        assert runner.fallbacks == 1
        runner.map(_specs(4))
        assert runner.fallbacks == 2
        assert runner_module.fallback_count() == 7  # aggregate kept counting

    def test_reset_clears_runner_but_not_aggregate(self, monkeypatch):
        self._pool_less(monkeypatch)
        monkeypatch.setattr(runner_module, "_FALLBACKS", 1)  # earlier sweep
        runner = Runner(workers=3)
        runner.map(_specs(3))
        assert runner.fallbacks == 1
        runner.reset_fallbacks()
        assert runner.fallbacks == 0
        assert runner_module.fallback_count() == 2  # aggregate untouched
        runner.map(_specs(3))
        assert runner.fallbacks == 1  # counts again after the reset

    def test_serial_runs_never_count_as_fallbacks(self):
        runner = Runner(workers=1)
        runner.map(_specs(5))
        assert runner.fallbacks == 0


class TestGrouped:
    def test_splits_row_major(self):
        assert runner_module.grouped([1, 2, 3, 4, 5, 6], 2) == [
            [1, 2],
            [3, 4],
            [5, 6],
        ]

    def test_size_one(self):
        assert runner_module.grouped(["a", "b"], 1) == [["a"], ["b"]]

    def test_empty_results(self):
        assert runner_module.grouped([], 3) == []

    def test_ragged_results_rejected(self):
        from repro.sim.errors import ExperimentError

        with pytest.raises(ExperimentError):
            runner_module.grouped([1, 2, 3], 2)

    def test_nonpositive_size_rejected(self):
        from repro.sim.errors import ExperimentError

        with pytest.raises(ExperimentError):
            runner_module.grouped([1], 0)


class TestFallbackAccounting:
    def test_fallback_increments_counter_and_warns_every_time(self, monkeypatch):
        import warnings as warnings_module

        class NoFork:
            def __init__(self, max_workers):
                raise OSError("fork denied")

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", NoFork)
        monkeypatch.setattr(runner_module, "_FALLBACKS", 0)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            Runner(workers=2).map(_specs(3))
            Runner(workers=2).map(_specs(3))
        assert runner_module.fallback_count() == 2
        # Every fallback says how many cells it re-ran serially.
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 2
        assert all("3 of 3 cells ran serially" in m for m in messages)


class TestScenarioKind:
    def test_scenario_cell_round_trips_a_spec(self):
        from repro.workloads.explorer import ScenarioSpec, run_scenario

        scenario = ScenarioSpec(protocol="sync", n=6, horizon=40.0, seed=2)
        spec = RunSpec(kind="scenario", params=scenario.to_dict())
        outcome = execute(spec)
        assert outcome.spec == scenario
        assert outcome.digest == run_scenario(scenario).digest
