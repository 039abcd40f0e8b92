"""The sync step oracle (``tests/oracle.py``) agrees with every traced
sync kernel cell and sync corpus entry, and catches a broken join.

A delay spike can put two WRITEs of the writer in flight to one process
at once; a DELIVER record names no broadcast id, so the oracle takes the
earliest and counts the match as ambiguous (7 on the no-churn spike cell,
5 on no-churn combo, 1 each with churn; 0 elsewhere)."""

from __future__ import annotations

import pytest

from repro.runtime.config import SystemConfig
from repro.runtime.system import DynamicSystem
from repro.workloads import explorer
from tests.integration.test_seed_corpus import CORPUS_SCENARIOS
from tests.oracle import Mismatch, check_sync
from tests.properties.test_kernel_parity import CELLS, _cell_id, _drive

SYNC_CELLS = [cell for cell in CELLS if cell["protocol"] == "sync"]
SYNC_CORPUS = {
    name: spec for name, spec in CORPUS_SCENARIOS if spec.protocol == "sync" and spec.shards == 1
}


@pytest.mark.parametrize("cell", SYNC_CELLS, ids=_cell_id)
def test_every_sync_kernel_cell_follows_the_figures(cell):
    steps, ambiguous = check_sync(_drive(trace=True, **cell))
    assert steps > 0 and (ambiguous == 0 or cell["fault_key"] in ("spike", "combo"))


@pytest.mark.parametrize("name", SYNC_CORPUS)
def test_every_sync_corpus_entry_follows_the_figures(name, monkeypatch):
    """The explorer's own run of the entry, with tracing on."""
    systems = []

    def traced(config):
        systems.append(DynamicSystem(config))
        return systems[-1]

    monkeypatch.setattr(
        explorer, "SystemConfig", lambda **config: SystemConfig(**{**config, "trace": True})
    )
    monkeypatch.setattr(explorer, "DynamicSystem", traced)
    explorer.run_scenario(SYNC_CORPUS[name])
    steps, ambiguous = check_sync(systems[0])
    assert steps > 0 and ambiguous == 0


def test_the_naive_join_is_caught_at_figure_1_line_02():
    system = DynamicSystem(SystemConfig(n=6, delta=5.0, protocol="naive", seed=3))
    system.write()
    system.run_for(2.0)
    system.spawn_joiner()
    system.run_for(20.0)
    with pytest.raises(Mismatch, match=r"p0007: Figure 1 line 02: unexpected broadcast Inquiry"):
        check_sync(system)
