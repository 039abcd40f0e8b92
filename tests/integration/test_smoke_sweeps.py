"""The four CI explorer smoke sweeps, pinned in the golden store.

``.github/workflows/ci.yml`` runs ``repro explore`` four times — the
default matrix, the sharded axis, the resharding storms and the
rebalancer storms — and fails only on an in-model bug.  The golden
store's ``sweep/<name>`` family records what each of those sweeps
reports when run serially: its outcome counts and the sha256 of the
JSON report it writes.  A change that moves a cell, a label, a verdict
or a shrink result therefore fails here, with the sweep in the test id.

:data:`SWEEPS` holds each step's arguments exactly as ``ci.yml`` spells
them; the producer appends ``--workers 1 --out <tmp>`` (the last
``--workers`` wins), so the report is the one CI's sweep writes at any
worker count.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from tests.golden import expected

CI_PATH = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"

#: Each smoke step's ``repro explore`` arguments, as ``ci.yml`` runs them.
SWEEPS = {
    "default": "--budget 20 --seed 0 --workers 4",
    "sharded": (
        "--budget 12 --seed 0 --workers 4 --protocols sync --plans none "
        "light-loss partition-drop --churn 0.02 --keys 4 --key-dist zipf "
        "--shards 1 3 --n 18"
    ),
    "resharding": (
        "--budget 12 --seed 0 --workers 4 --protocols sync --plans mig-loss "
        "mig-crash-copy mig-crash-install mig-storm --churn 0.02 --keys 6 "
        "--shards 3 --migrations 2 --n 18"
    ),
    "rebalancer": (
        "--budget 8 --seed 0 --workers 4 --protocols sync --plans rebal-loss "
        "rebal-crash rebal-storm --churn 0.02 --keys 6 --shards 3 "
        "--rebalance 2 --n 18"
    ),
}


@functools.lru_cache(maxsize=None)
def _swept(name: str) -> dict:
    """Run sweep ``name`` serially; its counts and its report's sha256."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        argv = ["explore", *SWEEPS[name].split(), "--workers", "1", "--out", str(report)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == 0, f"sweep {name} exited {code}"
        blob = report.read_bytes()
    return {
        "counts": json.loads(blob)["counts"],
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def sweep_family() -> dict:
    """The golden store's ``sweep/`` family: one entry per CI smoke sweep."""
    return {f"sweep/{name}": functools.partial(_swept, name) for name in SWEEPS}


SWEEP_KEYS = sweep_family()


@pytest.mark.parametrize("key", SWEEP_KEYS)
def test_smoke_sweep_reproduces_its_golden(key):
    assert SWEEP_KEYS[key]() == expected(key), (
        f"{key} no longer writes its recorded report; if this change "
        f"intentionally moved a cell, regenerate the golden store"
    )


@pytest.mark.parametrize("name", SWEEPS)
def test_the_pinned_arguments_are_ci_s(name):
    ci = " ".join(CI_PATH.read_text().split())
    assert f"python -m repro explore {SWEEPS[name]}" in ci
