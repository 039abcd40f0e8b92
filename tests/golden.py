"""The golden store: every fixed-seed value the suite pins, in one file.

``tests/golden.json`` maps a key ``<family>/<name>`` to the value a
fixed-seed run produced when the entry was recorded:

``digest/<field>``
    The five :data:`repro.bench.DIGEST_WORKLOADS` history digests
    (plain, faulted, keyed, migrating, rebalanced runs).
``kernel/<cell>``
    The kernel's observable surface — operation digest, every network
    counter, the fired-event count — on each cell of the grid in
    ``tests/properties/test_kernel_parity.py``.
``trace/<cell>``
    The record count and hash of the whole trace on its traced cells.
``corpus/<name>``
    An explorer scenario worth keeping (``tests/integration/
    test_seed_corpus.py``): its ``spec`` and the outcome (``expect``)
    replaying it gave.
``sweep/<name>``
    One of the four CI explorer smoke sweeps (``tests/integration/
    test_smoke_sweeps.py``): the outcome counts and the sha256 of the
    JSON report it writes.

Tests read the store through :func:`expected` only.  Each family's
producer lives beside the tests that read it (:data:`PRODUCERS`): it
maps every key of the family to a zero-argument callable recomputing
that entry.

A change that moves scheduling, RNG draws or accounting on purpose
rewrites the store with the one regen command::

    PYTHONPATH=src python -m tests.golden

It recomputes every family, rewrites the file, prints a one-line count
and then one ``moved:`` / ``added:`` / ``removed:`` line per key that
changed; the change says which keys moved and why.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from typing import Any, Callable

STORE_PATH = Path(__file__).with_name("golden.json")
SCHEMA_VERSION = 1

#: Family → ``"module:function"`` of its producer.
PRODUCERS: dict[str, str] = {
    "digest": "tests.integration.test_determinism:digest_family",
    "kernel": "tests.properties.test_kernel_parity:kernel_family",
    "trace": "tests.properties.test_kernel_parity:trace_family",
    "corpus": "tests.integration.test_seed_corpus:corpus_family",
    "sweep": "tests.integration.test_smoke_sweeps:sweep_family",
    "battery": "tests.experiments.battery:battery_family",
}


@functools.lru_cache(maxsize=1)
def load() -> dict[str, Any]:
    """The committed entries, by key (shared: do not mutate)."""
    return json.loads(STORE_PATH.read_text())["entries"]


def expected(key: str) -> Any:
    """The committed value of ``key``."""
    try:
        return load()[key]
    except KeyError:
        raise KeyError(
            f"{key} is not in {STORE_PATH.name}; regenerate it with "
            f"`PYTHONPATH=src python -m tests.golden`"
        ) from None


def producers() -> dict[str, Callable[[], Any]]:
    """Every key the families produce, with the callable recomputing it."""
    produced: dict[str, Callable[[], Any]] = {}
    for target in PRODUCERS.values():
        module, _, function = target.partition(":")
        produced.update(getattr(importlib.import_module(module), function)())
    return produced


def render(entries: dict[str, Any]) -> str:
    """The store file holding ``entries``, keys sorted."""
    payload = {"schema_version": SCHEMA_VERSION, "entries": dict(sorted(entries.items()))}
    return json.dumps(payload, indent=1) + "\n"


def changes(old: dict[str, Any], new: dict[str, Any]) -> list[str]:
    """One ``<kind>: <key>`` line per key that differs, in key order."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added: {key}")
        elif key not in new:
            lines.append(f"removed: {key}")
        elif old[key] != new[key]:
            lines.append(f"moved: {key}")
    return lines


def main() -> None:
    old = load() if STORE_PATH.exists() else {}
    text = render({key: compute() for key, compute in producers().items()})
    new = json.loads(text)["entries"]  # as the file holds them: lists, not tuples
    STORE_PATH.write_text(text)
    lines = changes(old, new)
    count = Counter(line.partition(":")[0] for line in lines)
    print(
        f"{STORE_PATH.name}: {len(new)} entries; {count['moved']} moved, "
        f"{count['added']} added, {count['removed']} removed"
    )
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
