"""Unit tests for ``repro bench --compare`` (artifact diffing)."""

import json
from pathlib import Path

import pytest

from repro.bench import compare_artifacts, worst_delta


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
        old = artifact({}, {"checker_regularity_speedup": 4.0})
        new = artifact({}, {"checker_regularity_speedup": 2.0})
        _, regressions = compare_artifacts(old, new, threshold=0.5)
        assert regressions == ["derived.checker_regularity_speedup"]

    def test_derived_overhead_rise_is_flagged(self):
        old = artifact({}, {"fault_gate_overhead": 1.1})
        new = artifact({}, {"fault_gate_overhead": 2.0})
        _, regressions = compare_artifacts(old, new, threshold=0.5)
        assert regressions == ["derived.fault_gate_overhead"]
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

    def test_digest_changes_reported_informationally(self):
        old = artifact({}, determinism={"digest": "a" * 64, "faulted_digest": "b" * 64})
        new = artifact({}, determinism={"digest": "a" * 64, "faulted_digest": "c" * 64})
        lines, regressions = compare_artifacts(old, new, threshold=0.0)
        assert regressions == []
        assert any("determinism.digest: unchanged" in line for line in lines)
        assert any(
            line.startswith("determinism.faulted_digest: CHANGED") for line in lines
        )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_artifacts(artifact({}), artifact({}), threshold=-0.1)


class TestCommittedArtifactGuards:
    """The committed baseline must keep tracking the known bottlenecks.

    ``repro bench --compare BENCH_kernel.json`` only guards what the
    committed artifact records; this pins the entries that must never
    silently drop out of it.
    """

    def test_committed_artifact_tracks_the_known_bottlenecks(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
        payload = json.loads(path.read_text())
        names = {b["name"] for b in payload["benchmarks"]}
        # The PR 1 bottleneck (churn-tick join traffic) rides --compare,
        # not just the ROADMAP prose.
        assert "churn_tick_cost" in names
        # The sharded-cluster pair and its derived scaling ratio.
        assert {"cluster_single", "cluster_sharded"} <= names
        assert "shard_scaling" in payload["derived"]
        # The resharding workloads: hand-scheduled handoffs (PR 6) and
        # the policy-driven rebalancer storm (PR 7).
        assert {"migration_handoff", "rebalance_storm"} <= names
        # The population-scaling workloads guarding the batched-delivery
        # kernel (PR 8): fan-out and churn at n = 1000.
        assert {"broadcast_fanout_large", "churn_tick_large"} <= names
        # The million-node kernel (PR 10): the deep-queue hot loop and
        # the n = 10^6 mesoscale cell.
        assert {"scheduler_hot_loop", "mesoscale_million"} <= names
        for digest in (
            "digest",
            "faulted_digest",
            "keyed_digest",
            "cluster_digest",
            "migration_digest",
            "rebalance_digest",
        ):
            assert digest in payload["determinism"]


class TestWorstDelta:
    """The one-line PASS/FAIL summary's culprit finder."""

    def test_picks_the_worst_wall_ratio(self):
        old = artifact({"a": 1.0, "churn_tick_cost": 2.0})
        new = artifact({"a": 1.1, "churn_tick_cost": 3.0})
        assert worst_delta(old, new) == ("churn_tick_cost", 1.5)

    def test_derived_speedup_drop_normalized_above_one(self):
        # A speedup halving is a 2.0x delta — worse than a 1.3x wall rise.
        old = artifact({"a": 1.0}, {"checker_regularity_speedup": 4.0})
        new = artifact({"a": 1.3}, {"checker_regularity_speedup": 2.0})
        assert worst_delta(old, new) == ("derived.checker_regularity_speedup", 2.0)

    def test_derived_overhead_rise_normalized_above_one(self):
        old = artifact({}, {"fault_gate_overhead": 1.0})
        new = artifact({}, {"fault_gate_overhead": 1.4})
        name, delta = worst_delta(old, new)
        assert name == "derived.fault_gate_overhead"
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
