"""Unit tests for ``repro bench --compare`` (artifact diffing)."""

import json

import pytest

from repro import bench
from repro.bench import (
    DIGEST_WORKLOADS,
    TIMED_WORKLOADS,
    compare_artifacts,
    run_and_report,
    stable_field,
    worst_delta,
)
from tests.conftest import committed_bench_artifact


def artifact(walls: dict[str, float], derived: dict[str, float] | None = None,
             determinism: dict[str, str] | None = None) -> dict:
    return {
        "benchmarks": [
            {"name": name, "wall_seconds": wall, "metric": "m", "value": 1}
            for name, wall in walls.items()
        ],
        "derived": dict(derived or {}),
        "determinism": dict(determinism or {}),
    }


class TestCompareArtifacts:
    def test_clean_comparison_flags_nothing(self):
        old = artifact({"a": 1.0, "b": 0.5}, {"speedup": 3.0})
        new = artifact({"a": 1.1, "b": 0.45}, {"speedup": 3.2})
        lines, regressions = compare_artifacts(old, new, threshold=0.5)
        assert regressions == []
        assert any("a: 1000.00 ms -> 1100.00 ms" in line for line in lines)

    def test_wall_time_regression_past_threshold_is_flagged(self):
        old = artifact({"hot_path": 1.0})
        new = artifact({"hot_path": 1.8})
        lines, regressions = compare_artifacts(old, new, threshold=0.5)
        assert regressions == ["hot_path"]
        assert any("REGRESSION" in line for line in lines)
        # The same delta passes a looser threshold.
        _, ok = compare_artifacts(old, new, threshold=1.0)
        assert ok == []

    def test_derived_speedup_drop_is_flagged(self):
        old = artifact({}, {"trace_off_speedup": 4.0})
        new = artifact({}, {"trace_off_speedup": 2.0})
        _, regressions = compare_artifacts(old, new, threshold=0.5)
        assert regressions == ["derived.trace_off_speedup"]

    def test_derived_overhead_rise_is_flagged(self):
        old = artifact({}, {"keyed_fanout_overhead": 1.1})
        new = artifact({}, {"keyed_fanout_overhead": 2.0})
        _, regressions = compare_artifacts(old, new, threshold=0.5)
        assert regressions == ["derived.keyed_fanout_overhead"]
        # An overhead *drop* is an improvement, never flagged.
        _, ok = compare_artifacts(new, old, threshold=0.5)
        assert ok == []

    def test_new_and_dropped_workloads_reported_not_flagged(self):
        old = artifact({"kept": 1.0, "dropped": 2.0})
        new = artifact({"kept": 1.0, "added": 9.0}, {"fresh_ratio": 1.0})
        lines, regressions = compare_artifacts(old, new, threshold=0.1)
        assert regressions == []
        assert any("added: new workload" in line for line in lines)
        assert any("dropped: workload dropped" in line for line in lines)
        assert any("derived.fresh_ratio: new ratio" in line for line in lines)

    def test_digest_change_is_a_regression(self):
        old = artifact(
            {"a": 1.0}, determinism={"digest": "a" * 64, "faulted_digest": "b" * 64}
        )
        new = artifact(
            {"a": 1.0}, determinism={"digest": "a" * 64, "faulted_digest": "c" * 64}
        )
        # No threshold applies to a digest: the loosest one still flags it.
        lines, regressions = compare_artifacts(old, new, threshold=100.0)
        assert regressions == ["determinism.faulted_digest"]
        assert any("determinism.digest: unchanged" in line for line in lines)
        assert any(
            line.startswith("determinism.faulted_digest: CHANGED")
            and line.endswith("REGRESSION")
            for line in lines
        )
        # The timing summary is a separate statement and does not move.
        assert worst_delta(old, new) == ("a", 1.0)

    def test_digest_only_one_side_knows_is_not_flagged(self):
        old = artifact({}, determinism={"digest": "a" * 64})
        new = artifact({}, determinism={"digest": "a" * 64, "keyed_digest": "c" * 64})
        assert compare_artifacts(old, new) == (["determinism.digest: unchanged"], [])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_artifacts(artifact({}), artifact({}), threshold=-0.1)


class TestRunAndReportExit:
    """``repro bench`` exits 1 on digest drift.  The run is canned (the
    committed artifact stands in for a fresh one): the exit condition is
    under test; the real digests are pinned in ``test_determinism.py``."""

    @pytest.fixture
    def run(self, monkeypatch, tmp_path):
        def run(fresh: dict, baseline: dict) -> int:
            monkeypatch.setattr(bench, "run_kernel_benchmarks", lambda **_: fresh)
            (tmp_path / "baseline.json").write_text(json.dumps(baseline))
            return run_and_report(
                out_path=str(tmp_path / "fresh.json"),
                compare_to=str(tmp_path / "baseline.json"),
                threshold=3.0,
            )

        return run

    def test_matching_baseline_exits_zero(self, run, capsys):
        assert run(committed_bench_artifact(), committed_bench_artifact()) == 0
        assert "COMPARE PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("field", DIGEST_WORKLOADS)
    def test_doctored_baseline_digest_exits_one(self, run, capsys, field):
        doctored = committed_bench_artifact()
        doctored["determinism"][field] = "0" * 64
        assert run(committed_bench_artifact(), doctored) == 1
        assert f"REGRESSED: determinism.{field}\n" in capsys.readouterr().out

    def test_unstable_digest_exits_one(self, run, capsys):
        unstable = committed_bench_artifact()
        unstable["determinism"][stable_field("cluster_digest")] = False
        assert run(unstable, committed_bench_artifact()) == 1
        out = capsys.readouterr().out
        assert "UNSTABLE" in out and "COMPARE" not in out


class TestCommittedArtifactGuards:
    """``repro bench --compare BENCH_kernel.json`` only guards what the
    committed artifact records: it holds exactly the surviving entries,
    under the names an older artifact knows them by, and none of the
    rows ``perf/README.md`` ("What this supersedes") retired."""

    DIGESTS = ["digest", "faulted_digest", "keyed_digest", "cluster_digest",
               "migration_digest", "rebalance_digest"]
    ROWS = ["broadcast_fanout_trace_off", "broadcast_fanout_trace_on",
            "mesoscale_million", "keyed_store_fanout_single", "keyed_store_fanout",
            "cluster_single", "cluster_sharded", "migration_handoff",
            "rebalance_storm", "explore_sweep_serial", "explore_sweep_parallel"]
    RATIOS = ["trace_off_speedup", "keyed_fanout_overhead", "shard_scaling",
              "parallel_explore_speedup"]
    SUPERSEDED = {
        "engine_event_throughput", "broadcast_fanout_fault_gated",
        "churn_tick_cost", "broadcast_fanout_large", "churn_tick_large",
        "scheduler_hot_loop", "checker_regularity_fast",
        "checker_regularity_paranoid", "checker_atomicity_fast",
        "checker_atomicity_paranoid", "fault_gate_overhead",
        "checker_regularity_speedup", "checker_atomicity_speedup", "history_ops",
    }

    def test_committed_artifact_holds_exactly_the_surviving_entries(self):
        payload = committed_bench_artifact()
        assert [b["name"] for b in payload["benchmarks"]] == self.ROWS
        assert list(payload["derived"]) == self.RATIOS
        assert list(payload["determinism"]) == [
            key for field in self.DIGESTS for key in (field, stable_field(field))
        ]
        assert all(payload["determinism"][stable_field(f)] for f in self.DIGESTS)

    def test_the_tables_are_the_artifact_schema(self):
        assert list(DIGEST_WORKLOADS) == self.DIGESTS
        assert list(TIMED_WORKLOADS) == self.ROWS[:-2]  # + the sweep pair

    def test_every_superseded_name_is_absent(self):
        payload = committed_bench_artifact()
        present = {b["name"] for b in payload["benchmarks"]}
        present |= set(payload) | set(payload["derived"]) | set(bench.PROFILE_WORKLOADS)
        assert not present & self.SUPERSEDED


class TestWorstDelta:
    """The one-line PASS/FAIL summary's culprit finder."""

    def test_picks_the_worst_wall_ratio(self):
        old = artifact({"a": 1.0, "rebalance_storm": 2.0})
        new = artifact({"a": 1.1, "rebalance_storm": 3.0})
        assert worst_delta(old, new) == ("rebalance_storm", 1.5)

    def test_derived_speedup_drop_normalized_above_one(self):
        # A speedup halving is a 2.0x delta — worse than a 1.3x wall rise.
        old = artifact({"a": 1.0}, {"trace_off_speedup": 4.0})
        new = artifact({"a": 1.3}, {"trace_off_speedup": 2.0})
        assert worst_delta(old, new) == ("derived.trace_off_speedup", 2.0)

    def test_derived_overhead_rise_normalized_above_one(self):
        old = artifact({}, {"keyed_fanout_overhead": 1.0})
        new = artifact({}, {"keyed_fanout_overhead": 1.4})
        name, delta = worst_delta(old, new)
        assert name == "derived.keyed_fanout_overhead"
        assert delta == pytest.approx(1.4)

    def test_speedup_collapse_to_zero_is_flagged_not_skipped(self):
        old = artifact({}, {"parallel_explore_speedup": 3.0})
        new = artifact({}, {"parallel_explore_speedup": 0.0})
        assert worst_delta(old, new) == (
            "derived.parallel_explore_speedup",
            float("inf"),
        )
        _, regressions = compare_artifacts(old, new, threshold=0.5)
        assert regressions == ["derived.parallel_explore_speedup"]

    def test_improvements_stay_below_one(self):
        old = artifact({"a": 2.0}, {"shard_scaling": 4.0})
        new = artifact({"a": 1.0}, {"shard_scaling": 5.0})
        name, delta = worst_delta(old, new)
        assert delta < 1.0

    def test_disjoint_artifacts_have_no_delta(self):
        assert worst_delta(artifact({"a": 1.0}), artifact({"b": 1.0})) is None
