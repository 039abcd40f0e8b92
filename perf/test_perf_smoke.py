"""Tier-1 smoke for the judged-run benchmark (``perf/``).

Every workload runs twice at ``--scale 0.05`` in this process — once
plain, once under the profiler — so the suite pays one ``import repro``
instead of twelve.  ``sync_scale_100k`` runs once: building 10^5 nodes
a second time, under the profiler, would alone take the suite past its
ten seconds.  The timed benchmark itself is not run here.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, PERF_DIR)

import judged  # noqa: E402
import run  # noqa: E402
from fold import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def benchmark_spec() -> dict:
    return run.load_benchmark()


NAMES = [w.name for w in WORKLOADS]
TRACED = [name for name in NAMES if name != "sync_scale_100k"]


@pytest.fixture(scope="module")
def runs() -> dict:
    """``name -> [plain run, traced run]`` at the smoke scale."""
    return {
        name: [
            judged.judged_run(name, 0, SCALE, traced)
            for traced in ((False, True) if name in TRACED else (False,))
        ]
        for name in NAMES
    }


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_checks_and_repeats_exactly(runs, name):
    plain = runs[name][0]
    for result in runs[name]:
        assert result["failed"] == 0
        assert result["counts"]["core.violations"] == 0
        assert result["counts"]["core.stuck"] == 0
        assert result["counts"]["cluster.handoffs_unresolved"] == 0
        assert run.differences(result, plain) == []
    # A changed count is named, not just detected.
    moved = {**plain, "counts": {**plain["counts"], "net.sent": -1}}
    assert run.differences(moved, plain) == ["net.sent"]


@pytest.mark.parametrize("name", TRACED)
def test_fold_accounts_for_the_profiled_time(runs, name):
    folded = runs[name][1]["fold"]
    assert folded["self_s"]["unattributed"] <= 0.05 * folded["total_s"]
    assert sum(folded["self_s"].values()) == pytest.approx(folded["total_s"])
    if name != "es_faulted_200":
        assert folded["self_s"]["faults"] == 0.0
        assert folded["calls_in"]["faults"] == 0


def test_names_match_benchmark_json(runs, benchmark_spec):
    assert [w["name"] for w in benchmark_spec["workloads"]] == NAMES
    assert {w["name"]: w["why"] for w in benchmark_spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS
    }
    plain, traced = runs["abd_static_200"]
    end_names = [m["name"] for m in benchmark_spec["end_to_end"]]
    assert [*end_names, "ops_failed_share"] == list(run.end_to_end(plain))
    entry = {
        "counts": plain["counts"],
        "spans": {k: v for k, v in plain["times"].items() if "." in k},
        "traced": run.traced_layers(traced, plain["times"]["wall_s"]),
    }
    layer_names = [m["name"] for m in benchmark_spec["per_layer"]]
    assert sorted(layer_names) == sorted(run.per_layer(entry))
    assert {name.split(".")[0] for name in layer_names} == {*LAYERS, "trace"}
    for name in [*end_names, *layer_names, *NAMES]:
        assert NAME.fullmatch(name), name
    assert len(set(end_names + layer_names)) == len(end_names + layer_names)
    assert benchmark_spec["paths"] == ["perf"]
    assert "setup_s" in end_names


def test_driver_form_prints_one_json_line(capsys, benchmark_spec):
    code = run.main(
        ["--workload", "abd_static_200", "--scale", str(SCALE),
         "--repeats", "1", "--trace", "1"]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    line = json.loads(last)
    assert code == 0
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in benchmark_spec["per_layer"]
    )


def test_pins_cover_every_workload_and_count(runs):
    with open(run.PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)
    assert sorted(pins) == sorted(NAMES)
    for name, pin in pins.items():
        assert sorted(pin["counts"]) == sorted(runs[name][0]["counts"])
        assert len(pin["digest"]) == 64
