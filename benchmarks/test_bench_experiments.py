"""Benchmarks E1–E18 — regenerate every experiment in the registry.

One case per entry of :data:`repro.experiments.EXPERIMENTS` (what each
one reproduces is in its module docstring), so a new experiment gets its
benchmark by being registered.  The case ids keep the historical
``test_bench_eNN`` spelling.
"""

import pytest

from repro.experiments import EXPERIMENTS

from .conftest import regenerate


@pytest.mark.parametrize(
    "experiment_id",
    [
        pytest.param(experiment_id, id=f"test_bench_e{int(experiment_id[1:]):02d}")
        for experiment_id in EXPERIMENTS
    ],
)
def test_bench_experiment(benchmark, experiment_id):
    regenerate(benchmark, EXPERIMENTS[experiment_id], experiment_id)
