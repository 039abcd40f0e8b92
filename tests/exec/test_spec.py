"""Unit tests for RunSpec and the cell-kind registry."""

import pickle

import pytest

from repro.exec import RunSpec, resolve
from repro.experiments import EXPERIMENTS
from repro.sim.errors import ExperimentError
from repro.sim.rng import derive_seed

SCENARIO_CELL = "repro.workloads.explorer:scenario_cell"


def _module_of(kind):
    return kind.partition(":")[0]


def _grid(experiment_id, quick):
    experiment = EXPERIMENTS[experiment_id]
    return experiment.grid(experiment.params(0, quick), quick)


class TestRunSpec:
    def test_seeded_derives_the_documented_seed(self):
        spec = RunSpec.seeded("e04", 7, "e04:0.5", n=10, delta=5.0)
        assert spec.params["seed"] == derive_seed(7, "e04:0.5")
        assert spec.params["n"] == 10
        assert spec.label == "e04:0.5"

    def test_seeded_explicit_label_wins(self):
        spec = RunSpec.seeded("e04", 7, "e04:0.5", label="pretty")
        assert spec.label == "pretty"

    def test_round_trips_through_pickle(self):
        """What the worker pool does to every spec it runs."""
        spec = RunSpec(kind=SCENARIO_CELL, params={"seed": 3, "n": 5}, label="x")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_missing_optionals_default_empty(self):
        spec = RunSpec(kind=SCENARIO_CELL)
        assert spec.params == {} and spec.label == ""

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_every_cell_spec_survives_the_pool_pickle(self, experiment_id):
        """A param that cannot be pickled, or loses state on the way,
        shows only under ``--workers`` > 1.  Rate profiles define no
        ``__eq__``, so a spec is compared by what it pickles to."""
        for quick in (True, False):
            for spec in _grid(experiment_id, quick):
                data = pickle.dumps(spec)
                assert pickle.dumps(pickle.loads(data)) == data, spec.label


class TestRegistry:
    def test_the_explorer_names_a_cell_that_resolves(self):
        from repro.workloads import explorer

        assert resolve(SCENARIO_CELL) is explorer.scenario_cell

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_every_experiment_registers_its_cells(self, experiment_id):
        """A declaration names its cells as ``"module:function"`` of an
        experiment module, each resolving to that module's function, in
        both modes."""
        kinds = {
            spec.kind for quick in (True, False) for spec in _grid(experiment_id, quick)
        }
        assert kinds, f"{experiment_id} has no cell"
        for kind in kinds:
            assert _module_of(kind).startswith("repro.experiments."), kind
            assert resolve(kind).__module__ == _module_of(kind)

    @pytest.mark.parametrize("experiment_id", ["A1", "A2", "A3", "A4", "A5", "A6"])
    def test_ablation_cells_keep_their_derive_labels(self, experiment_id):
        """Each variant's seed is ``derive_seed(root, "<id>:<variant>")``,
        the label the ablations have always drawn their seeds from."""
        prefix = experiment_id.lower() + ":"
        for spec in _grid(experiment_id, quick=True):
            assert spec.label.startswith(prefix)
            assert spec.params["seed"] == derive_seed(0, spec.label)

    def test_module_colon_function_form_resolves(self):
        fn = resolve("repro.sim.rng:derive_seed")
        assert fn is derive_seed

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ExperimentError):
            resolve("no-such-kind")

    def test_unimportable_module_is_rejected(self):
        with pytest.raises(ExperimentError):
            resolve("repro.no_such_module:cell")

    def test_non_callable_entry_point_is_rejected(self):
        with pytest.raises(ExperimentError):
            resolve("repro.exec.registry:_RESOLVED")
