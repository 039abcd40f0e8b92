"""Unit tests for ``repro bench``: a deterministic artifact of six
digests, and ``--compare`` as "every digest equal, or exit 1 naming it"."""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.bench import (
    DIGEST_WORKLOADS,
    compare_artifacts,
    run_and_report,
    run_kernel_benchmarks,
    stable_field,
)
from tests.conftest import committed_bench_artifact

#: The artifact as schema 1 wrote it (timed rows, ratios, run settings
#: and the same six digests): an older baseline ``--compare`` must read.
SCHEMA_1_ARTIFACT = Path(__file__).resolve().parent / "bench_kernel_schema1.json"

DIGESTS = ["digest", "faulted_digest", "keyed_digest", "cluster_digest",
           "migration_digest", "rebalance_digest"]


@pytest.fixture(scope="module")
def fresh():
    """One real ``run_kernel_benchmarks()`` payload for the module."""
    return run_kernel_benchmarks()


def with_digests(**digests: str) -> dict:
    determinism = dict(committed_bench_artifact()["determinism"])
    determinism.update(digests)
    return {"determinism": determinism}


class TestTheArtifactIsDeterministic:
    def test_two_runs_return_equal_payloads(self, fresh):
        assert run_kernel_benchmarks() == fresh

    def test_the_committed_artifact_is_a_fresh_run_but_for_python(self, fresh):
        committed = committed_bench_artifact()
        assert {**committed, "python": fresh["python"]} == fresh


class TestCompareArtifacts:
    def test_equal_digests_flag_nothing(self):
        old, new = with_digests(), with_digests()
        lines, regressions = compare_artifacts(old, new)
        assert regressions == []
        assert lines == [f"determinism.{field}: unchanged" for field in DIGESTS]

    def test_a_changed_digest_is_named(self):
        lines, regressions = compare_artifacts(
            with_digests(), with_digests(faulted_digest="c" * 64)
        )
        assert regressions == ["determinism.faulted_digest"]
        assert "determinism.digest: unchanged" in lines
        assert any(
            line.startswith("determinism.faulted_digest: CHANGED")
            and line.endswith(f"-> {'c' * 16}…  REGRESSION")
            for line in lines
        )

    def test_a_digest_the_baseline_lacks_is_named(self):
        old = with_digests()
        del old["determinism"]["keyed_digest"]
        lines, regressions = compare_artifacts(old, with_digests())
        assert regressions == ["determinism.keyed_digest"]
        assert any("keyed_digest: CHANGED missing ->" in line for line in lines)
        assert compare_artifacts({}, with_digests())[1] == [
            f"determinism.{field}" for field in DIGESTS
        ]


class TestRunAndReportExit:
    """``repro bench`` exits 1 on digest drift.  The fresh run is the
    module's real one; the real digests are also pinned one by one in
    ``test_determinism.py``."""

    @pytest.fixture
    def run(self, monkeypatch, tmp_path, fresh):
        def run(baseline: dict | Path, result: dict = fresh) -> int:
            monkeypatch.setattr(bench, "run_kernel_benchmarks", lambda: result)
            if isinstance(baseline, dict):
                path = tmp_path / "baseline.json"
                path.write_text(json.dumps(baseline))
                baseline = path
            return run_and_report(
                out_path=str(tmp_path / "fresh.json"), compare_to=str(baseline)
            )

        return run

    def test_committed_baseline_exits_zero(self, run, capsys):
        assert run(committed_bench_artifact()) == 0
        assert "COMPARE PASS: all 6 digests unchanged" in capsys.readouterr().out

    def test_schema_1_baseline_passes_with_its_timings_ignored(self, run, capsys):
        schema_1 = json.loads(SCHEMA_1_ARTIFACT.read_text())
        assert schema_1["schema_version"] == 1 and schema_1["benchmarks"]
        assert run(SCHEMA_1_ARTIFACT) == 0
        out = capsys.readouterr().out
        assert "COMPARE PASS" in out
        for row in schema_1["benchmarks"]:
            assert row["name"] not in out
        for ratio in schema_1["derived"]:
            assert ratio not in out

    @pytest.mark.parametrize("field", DIGEST_WORKLOADS)
    def test_doctored_baseline_digest_exits_one(self, run, capsys, field):
        doctored = committed_bench_artifact()
        doctored["determinism"][field] = "0" * 64
        assert run(doctored) == 1
        out = capsys.readouterr().out
        assert "COMPARE FAIL: 1 of 6 digests differ" in out
        assert f"REGRESSED: determinism.{field}\n" in out

    def test_compare_in_place_reads_the_baseline_before_writing(
        self, run, tmp_path, capsys
    ):
        # --out == --compare: the doctored baseline must be judged, not
        # the fresh artifact written over it.
        doctored = committed_bench_artifact()
        doctored["determinism"]["digest"] = "0" * 64
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(doctored))
        assert run(path) == 1
        assert "REGRESSED: determinism.digest\n" in capsys.readouterr().out
        assert json.loads(path.read_text())["determinism"]["digest"] != "0" * 64

    def test_unstable_digest_exits_one(self, run, capsys):
        unstable = committed_bench_artifact()
        unstable["determinism"][stable_field("cluster_digest")] = False
        assert run(committed_bench_artifact(), result=unstable) == 1
        out = capsys.readouterr().out
        assert "UNSTABLE" in out and "COMPARE" not in out


class TestCommittedArtifactGuards:
    """``repro bench --compare BENCH_kernel.json`` guards exactly what
    the committed artifact records: the six digests and their run-twice
    flags, and nothing that a clock produced."""

    def test_committed_artifact_holds_exactly_the_digests(self):
        payload = committed_bench_artifact()
        assert list(payload) == ["artifact", "schema_version", "python", "determinism"]
        assert payload["artifact"] == "BENCH_kernel"
        assert payload["schema_version"] == bench.SCHEMA_VERSION == 2
        assert list(payload["determinism"]) == [
            key for field in DIGESTS for key in (field, stable_field(field))
        ]
        assert all(payload["determinism"][stable_field(f)] for f in DIGESTS)

    def test_the_table_is_the_artifact_schema(self):
        assert list(DIGEST_WORKLOADS) == DIGESTS
