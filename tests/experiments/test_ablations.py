"""Tests for the A1–A4 ablations."""

from functools import cache

import pytest

from repro.experiments.ablations import ABLATIONS


@cache
def quick(ablation_id):
    """The quick run of one ablation, once per session: ablations are
    deterministic and every test here only reads the result."""
    return ABLATIONS[ablation_id](seed=0, quick=True)


@pytest.mark.parametrize("ablation_id", sorted(ABLATIONS))
def test_ablation_reproduces(ablation_id):
    result = quick(ablation_id)
    assert result.verdict.startswith("REPRODUCED"), result.describe()


class TestA1Shapes:
    def test_inversions_grow_with_spread(self):
        result = quick("A1")
        inversions = result.column("inversions")
        # Spreads are listed tight-to-loose: the count must not shrink.
        assert inversions == sorted(inversions)

    def test_all_runs_regular(self):
        result = quick("A1")
        assert all(result.column("regular"))


class TestA2Shapes:
    def test_naive_caught_only_on_departure_rounds(self):
        result = quick("A2")
        naive = next(r for r in result.rows if r["protocol"] == "naive")
        # Coin-flip departures: violations strictly between 0 and all.
        assert 0 < naive["violations"] < naive["rounds"]
        assert naive["stale_joins"] == naive["violations"]

    def test_full_protocol_never_caught(self):
        result = quick("A2")
        sync = next(r for r in result.rows if r["protocol"] == "sync")
        assert sync["violations"] == 0
        assert sync["stale_joins"] == 0


class TestA3Shapes:
    def test_latency_bounds_are_exact(self):
        result = quick("A3")
        baseline, optimized = result.rows
        assert baseline["max_join_latency"] == 15.0  # 3δ with δ=5
        assert optimized["max_join_latency"] == 11.0  # 2δ + δ' with δ'=1
        assert all(result.column("safe"))

    def test_custom_p2p_bound(self):
        result = ABLATIONS["A3"](seed=0, quick=True, p2p_delta=2.5)
        optimized = result.rows[1]
        assert optimized["expected_bound"] == 12.5  # 2δ + δ'


class TestA4Shapes:
    def test_optimistic_policy_creates_fast_joins(self):
        result = quick("A4")
        none_row, all_row = result.rows
        assert none_row["fast_fraction"] < all_row["fast_fraction"]
        assert all_row["mean_latency"] < none_row["mean_latency"]

    def test_both_policies_safe(self):
        result = quick("A4")
        assert all(result.column("safe"))


class TestA5Shapes:
    def test_serialized_writes_never_diverge(self):
        result = quick("A5")
        serial = next(r for r in result.rows if "one" in r["writers"])
        assert serial["diverged_rounds"] == 0
        assert serial["sn_collisions"] == 0

    def test_concurrent_writers_always_collide(self):
        result = quick("A5")
        concurrent = next(r for r in result.rows if "two" in r["writers"])
        assert concurrent["diverged_rounds"] == concurrent["rounds"]
        assert concurrent["sn_collisions"] == concurrent["rounds"]


class TestA6Shapes:
    def test_sub_majority_quorums_always_stale(self):
        result = quick("A6")
        for row in result.rows:
            if not row["intersecting"]:
                assert row["violation_rate"] == 1.0

    def test_majority_quorum_never_stale(self):
        result = quick("A6")
        majority = next(r for r in result.rows if r["intersecting"])
        assert majority["violations"] == 0

    def test_smaller_quorums_finish_writes_faster(self):
        result = quick("A6")
        latencies = result.column("write_latency")
        assert latencies == sorted(latencies)
