"""The reproduction battery at seed 0, quick mode: run once, pinned.

:func:`quick` runs one row of the battery per session — every test that
reads a quick result shares it — and the golden store's ``battery/<id>``
family records the sha256 of each row's ``describe()`` text.  A change
that moves a cell, a row, a note or a verdict of any claim therefore
fails with the row in the test id.
"""

from __future__ import annotations

import functools
import hashlib

from repro.experiments import EXPERIMENTS, run


@functools.cache
def quick(experiment_id: str):
    """The quick run of one row, once per session: rows are
    deterministic and every reader only reads the result."""
    return run(EXPERIMENTS[experiment_id], seed=0, quick=True)


def described_sha256(experiment_id: str) -> str:
    return hashlib.sha256(quick(experiment_id).describe().encode()).hexdigest()


def battery_family() -> dict:
    """The golden store's ``battery/`` family: one entry per row."""
    return {
        f"battery/{experiment_id}": functools.partial(described_sha256, experiment_id)
        for experiment_id in EXPERIMENTS
    }
