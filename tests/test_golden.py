"""The golden store (``tests/golden.json``) against its producers.

The per-entry tests live beside each family's producer and read their
expectations through :func:`tests.golden.expected`; this file holds the
store itself: its key set is exactly what the producers produce, the
file is what the regen command writes, a doctored entry fails its
family's per-entry test, and the regen command rewrites a store and
names every key that changed.
"""

import pytest

from tests import golden, test_cli
from tests.experiments import test_experiments
from tests.integration import test_determinism, test_seed_corpus, test_smoke_sweeps
from tests.properties import test_kernel_parity


def test_the_store_holds_exactly_the_produced_keys():
    produced, stored = set(golden.producers()), set(golden.load())
    missing, extra = sorted(produced - stored), sorted(stored - produced)
    assert not (missing or extra), (
        f"missing from the store: {missing}; in the store but produced by "
        f"no family: {extra} — regenerate with `PYTHONPATH=src python -m tests.golden`"
    )


def test_the_file_is_what_the_regen_command_writes():
    assert golden.STORE_PATH.read_text() == golden.render(golden.load())


def test_an_unknown_key_is_refused_by_name():
    with pytest.raises(KeyError, match="digest/no-such-workload"):
        golden.expected("digest/no-such-workload")


def test_changes_name_every_moved_added_and_removed_key():
    old = {"digest/a": "x", "kernel/b": {"sent": 1}, "trace/c": {"records": 3}}
    new = {"digest/a": "x", "kernel/b": {"sent": 2}, "corpus/d": {"spec": {}}}
    assert golden.changes(old, new) == [
        "added: corpus/d",
        "moved: kernel/b",
        "removed: trace/c",
    ]


@pytest.mark.parametrize("family", golden.PRODUCERS)
def test_a_doctored_entry_of_each_family_is_named(family):
    store = golden.load()
    key = min(k for k in store if k.startswith(f"{family}/"))
    assert golden.changes(store, {**store, key: "doctored"}) == [f"moved: {key}"]


def _doctored(value):
    """``value`` with its last leaf changed and its shape kept."""
    if isinstance(value, dict):
        last = max(value)
        return {**value, last: _doctored(value[last])}
    if isinstance(value, list):
        return [*value[:-1], _doctored(value[-1])]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return f"{value}-doctored"


#: Each family's per-entry test, called with a store key.
PER_ENTRY_TESTS = {
    "digest": lambda key: test_determinism.test_digest_workload_reproduces_its_golden(key),
    "kernel": lambda key: test_kernel_parity.TestKernelGolden().test_surface_matches_golden(key),
    "trace": lambda key: test_kernel_parity.TestKernelGolden().test_trace_records_match_golden(key),
    "corpus": lambda key: test_seed_corpus.test_corpus_entry_records_its_canonical_spec(key),
    "sweep": lambda key: test_smoke_sweeps.test_smoke_sweep_reproduces_its_golden(key),
    "battery": lambda key: test_experiments.test_battery_row_reproduces_its_golden(key),
    "cli": lambda key: test_cli.test_cli_run_reproduces_its_golden(key),
}


@pytest.mark.parametrize("family", golden.PRODUCERS)
def test_each_family_s_per_entry_test_reads_the_store(family, monkeypatch):
    """A doctored entry fails its family's per-entry test: the test holds
    the run to the store, not to a value of its own."""
    store = golden.load()
    key = min(k for k in store if k.startswith(f"{family}/"))
    monkeypatch.setattr(golden, "load", lambda: {**store, key: _doctored(store[key])})
    with pytest.raises(AssertionError):
        PER_ENTRY_TESTS[family](key)


# ----------------------------------------------------------------------
# The regen command, on a store of its own
# ----------------------------------------------------------------------


@pytest.fixture
def regen(tmp_path, monkeypatch, capsys):
    """Run ``python -m tests.golden``'s body against a store in
    ``tmp_path`` whose producers yield ``entries``; return its stdout lines."""
    monkeypatch.setattr(golden, "STORE_PATH", tmp_path / "golden.json")
    monkeypatch.setattr(golden, "load", golden.load.__wrapped__)  # uncached

    def run(entries):
        monkeypatch.setattr(
            golden,
            "producers",
            lambda: {key: (lambda value=value: value) for key, value in entries.items()},
        )
        golden.main()
        return capsys.readouterr().out.splitlines()

    return run


#: Kind of change → (store before, what the producers yield, key named).
REGEN_CASES = {
    "moved": ({"digest/a": "x", "kernel/b": 1}, {"digest/a": "y", "kernel/b": 1}, "digest/a"),
    "added": ({"digest/a": "x"}, {"digest/a": "x", "kernel/b": 1}, "kernel/b"),
    "removed": ({"digest/a": "x", "kernel/b": 1}, {"digest/a": "x"}, "kernel/b"),
}


@pytest.mark.parametrize("kind", REGEN_CASES)
def test_regen_rewrites_the_store_and_names_the_changed_key(regen, kind):
    before, after, key = REGEN_CASES[kind]
    golden.STORE_PATH.write_text(golden.render(before))
    counts = {"moved": 0, "added": 0, "removed": 0, kind: 1}
    assert regen(after) == [
        f"golden.json: {len(after)} entries; {counts['moved']} moved, "
        f"{counts['added']} added, {counts['removed']} removed",
        f"{kind}: {key}",
    ]
    assert golden.STORE_PATH.read_text() == golden.render(after)


def test_regen_without_a_store_adds_every_key(regen):
    assert regen({"trace/c": {"records": 3}, "digest/a": "x"}) == [
        "golden.json: 2 entries; 0 moved, 2 added, 0 removed",
        "added: digest/a",
        "added: trace/c",
    ]


def test_regen_compares_values_as_the_file_holds_them(regen):
    """A producer returning tuples matches a store holding lists."""
    golden.STORE_PATH.write_text(golden.render({"kernel/b": [1, [2, 3]]}))
    assert regen({"kernel/b": (1, (2, 3))}) == [
        "golden.json: 1 entries; 0 moved, 0 added, 0 removed",
    ]
