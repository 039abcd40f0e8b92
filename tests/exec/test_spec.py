"""Unit tests for RunSpec and the cell-kind registry."""

import pytest

from repro.exec import ENTRY_POINTS, RunSpec, resolve
from repro.experiments import EXPERIMENTS
from repro.sim.errors import ExperimentError
from repro.sim.rng import derive_seed


def _module_of(kind):
    return ENTRY_POINTS[kind].partition(":")[0]


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
        module = EXPERIMENTS[experiment_id].__module__
        kinds = [k for k in ENTRY_POINTS if _module_of(k) == module]
        assert kinds, f"{experiment_id} has no registered cell kind"
        assert all(resolve(k).__module__ == module for k in kinds)

    def test_every_experiment_kind_belongs_to_the_battery(self):
        """Retiring an experiment retires its cell kinds with it."""
        battery = {runner.__module__ for runner in EXPERIMENTS.values()}
        for kind in ENTRY_POINTS:
            if _module_of(kind).startswith("repro.experiments."):
                assert _module_of(kind) in battery, kind

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
