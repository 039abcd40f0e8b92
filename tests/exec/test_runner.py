"""Unit tests for the Runner: ordering, worker counts, serial parity."""

import gc
import multiprocessing
import time
import warnings
from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.exec import Runner, RunSpec, execute, run_specs
from repro.exec import runner as runner_module
from repro.sim.errors import ExperimentError
from repro.sim.rng import derive_seed

#: A cheap, deterministic, picklable cell: derive_seed itself.
_KIND = "repro.sim.rng:derive_seed"


def _specs(count: int) -> list[RunSpec]:
    return [
        RunSpec(kind=_KIND, params={"root_seed": 9, "name": f"cell:{i}"})
        for i in range(count)
    ]


def _nap(seconds: float) -> None:
    """A cell that hangs (for as long as the test cares)."""
    time.sleep(seconds)


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

        class BreaksOnSubmit:
            def __init__(self, max_workers):
                pass

            def submit(self, fn, spec):
                raise BrokenProcessPool("workers never started")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", BreaksOnSubmit)
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
                self.submitted = 0

            def submit(self, fn, spec):
                future = Future()
                if self.submitted < 3:
                    future.set_result(fn(spec))
                else:
                    future.set_exception(BrokenExecutor("a worker died"))
                self.submitted += 1
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", BreaksAfterThree)
        monkeypatch.setattr(runner_module, "execute", recording_execute)
        with pytest.warns(RuntimeWarning, match="5 of 8 cells ran serially") as caught:
            outcomes = Runner(workers=3).map(_specs(8))
        assert outcomes == [derive_seed(9, f"cell:{i}") for i in range(8)]
        assert executed == [f"cell:{i}" for i in range(8)]  # each once, in order
        assert len(caught) == 1  # one fallback, one warning
        assert runner_module._POOLS == {}


class TestHungCell:
    def test_a_hung_cell_is_named_and_its_pool_terminated(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "CELL_BUDGET_S", 0.5)
        before = set(multiprocessing.active_children())
        sleeper = RunSpec(
            kind=f"{__name__}:_nap", params={"seconds": 60.0}, label="the sleeper"
        )
        started = time.monotonic()
        with pytest.raises(
            ExperimentError,
            match="cell 'the sleeper' ran past its 0.5 s budget; its pool's "
            "workers were terminated",
        ):
            Runner(workers=2).map([*_specs(2), sleeper, *_specs(1)])
        assert time.monotonic() - started < 30.0
        # The pool is gone, and so are its workers — the sleeper's too.
        assert runner_module._POOLS == {}
        assert set(multiprocessing.active_children()) <= before


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
                    kind="repro.workloads.explorer:scenario_cell",
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


class TestFallbackWarnings:
    """Every pool→serial fallback warns once, saying how many cells it
    re-ran serially and carrying the process-wide fallback ordinal, so
    the default once-per-location filter cannot swallow the next one."""

    @staticmethod
    def _pool_less(monkeypatch, earlier: int = 0):
        class NoFork:
            def __init__(self, max_workers):
                raise OSError("fork denied")

        monkeypatch.setattr(runner_module, "_POOLS", {})
        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", NoFork)
        monkeypatch.setattr(runner_module, "_FALLBACKS", earlier)

    @staticmethod
    def _fallback_warnings(*runs) -> list[str]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for runner, count in runs:
                runner.map(_specs(count))
        return [str(w.message) for w in caught if w.category is RuntimeWarning]

    def test_each_fallback_warns_once_with_its_cell_count(self, monkeypatch):
        self._pool_less(monkeypatch)
        messages = self._fallback_warnings(
            (Runner(workers=2), 3), (Runner(workers=2), 3)
        )
        assert len(messages) == 2  # distinct texts: neither is swallowed
        assert all("3 of 3 cells ran serially" in m for m in messages)
        assert messages[0].endswith("fallback #1 of this process)")
        assert messages[1].endswith("fallback #2 of this process)")

    def test_ordinal_counts_every_runner_in_the_process(self, monkeypatch):
        self._pool_less(monkeypatch, earlier=5)  # earlier sweeps fell back
        runner = Runner(workers=3)
        messages = self._fallback_warnings(
            (runner, 4), (runner, 4), (Runner(workers=2), 3)
        )
        assert [m.split("fallback #")[1] for m in messages] == [
            f"{i} of this process)" for i in (6, 7, 8)
        ]
        assert runner_module._FALLBACKS == 8

    def test_serial_runs_never_fall_back(self, monkeypatch):
        self._pool_less(monkeypatch)
        runs = (Runner(workers=1), 5), (Runner(workers=4), 1)
        assert self._fallback_warnings(*runs) == []
        assert runner_module._FALLBACKS == 0


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


class TestScenarioKind:
    def test_scenario_cell_round_trips_a_spec(self):
        from repro.workloads.explorer import ScenarioSpec, run_scenario

        scenario = ScenarioSpec(protocol="sync", n=6, horizon=40.0, seed=2)
        spec = RunSpec(
            kind="repro.workloads.explorer:scenario_cell", params=scenario.to_dict()
        )
        outcome = execute(spec)
        assert outcome.spec == scenario
        assert outcome.digest == run_scenario(scenario).digest
