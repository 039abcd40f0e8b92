"""Unit tests for RunSpec and the cell-kind registry."""

import pytest

from repro.exec import ENTRY_POINTS, RunSpec, resolve
from repro.experiments import EXPERIMENTS
from repro.sim.errors import ExperimentError
from repro.sim.rng import derive_seed


def _module_of(kind):
    return ENTRY_POINTS.get(kind, kind).partition(":")[0]


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

    def test_round_trips_through_dict(self):
        spec = RunSpec(kind="scenario", params={"seed": 3, "n": 5}, label="x")
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_tolerates_missing_optionals(self):
        spec = RunSpec.from_dict({"kind": "scenario"})
        assert spec.params == {} and spec.label == ""


class TestRegistry:
    @pytest.mark.parametrize("kind", sorted(ENTRY_POINTS))
    def test_every_registered_kind_resolves_to_a_callable(self, kind):
        assert callable(resolve(kind))

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

    def test_every_experiment_kind_belongs_to_the_battery(self):
        """Experiment cells are named by their declarations, so the
        static table holds no experiment kind to retire with one."""
        for kind in ENTRY_POINTS:
            assert not _module_of(kind).startswith("repro.experiments."), kind

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
            resolve("repro.exec.registry:ENTRY_POINTS")
