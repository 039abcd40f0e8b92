"""Unit tests for the constant-churn model and the analytic bounds."""

import pytest

from repro.churn.model import (
    ConstantChurn,
    eventually_synchronous_churn_bound,
    lemma2_window_lower_bound,
    sharded_synchronous_churn_bound,
    synchronous_churn_bound,
)
from repro.sim.errors import ChurnError


class TestConstantChurn:
    def test_integer_quota(self):
        churn = ConstantChurn(rate=0.1, n=20)  # exactly 2 per tick
        assert [churn.refreshes_for_next_tick() for _ in range(4)] == [2, 2, 2, 2]

    def test_fractional_quota_carries(self):
        churn = ConstantChurn(rate=0.05, n=30)  # 1.5 per tick
        draws = [churn.refreshes_for_next_tick() for _ in range(4)]
        assert draws == [1, 2, 1, 2]
        assert sum(draws) == 6  # exact long-run average

    def test_sub_unit_quota_accumulates(self):
        churn = ConstantChurn(rate=0.01, n=25)  # 0.25 per tick
        draws = [churn.refreshes_for_next_tick() for _ in range(8)]
        assert sum(draws) == 2
        assert set(draws) <= {0, 1}

    def test_zero_rate(self):
        churn = ConstantChurn(rate=0.0, n=10)
        assert churn.refreshes_for_next_tick() == 0

    def test_default_start_is_one_period(self):
        assert ConstantChurn(rate=0.1, n=10).start == 1.0
        assert ConstantChurn(rate=0.1, n=10, period=2.5).start == 2.5

    def test_per_tick_quota(self):
        assert ConstantChurn(rate=0.1, n=20, period=0.5).per_tick_quota == 1.0

    def test_validation(self):
        with pytest.raises(ChurnError):
            ConstantChurn(rate=-0.1, n=10)
        with pytest.raises(ChurnError):
            ConstantChurn(rate=1.0, n=10)
        with pytest.raises(ChurnError):
            ConstantChurn(rate=0.1, n=0)
        with pytest.raises(ChurnError):
            ConstantChurn(rate=0.1, n=10, period=0.0)


class TestBounds:
    def test_synchronous_bound(self):
        assert synchronous_churn_bound(5.0) == pytest.approx(1.0 / 15.0)

    def test_synchronous_bound_validation(self):
        with pytest.raises(ChurnError):
            synchronous_churn_bound(0.0)

    def test_es_bound_involves_n(self):
        assert eventually_synchronous_churn_bound(5.0, 10) == pytest.approx(
            1.0 / 150.0
        )
        # Larger systems tolerate proportionally less churn rate.
        assert eventually_synchronous_churn_bound(5.0, 100) < synchronous_churn_bound(
            5.0
        )

    def test_es_bound_validation(self):
        with pytest.raises(ChurnError):
            eventually_synchronous_churn_bound(5.0, 0)

    def test_lemma2_bound_values(self):
        assert lemma2_window_lower_bound(60, 0.0, 5.0) == 60.0
        assert lemma2_window_lower_bound(60, 1.0 / 15.0, 5.0) == pytest.approx(0.0)
        assert lemma2_window_lower_bound(60, 1.0 / 30.0, 5.0) == pytest.approx(30.0)

    def test_sharded_bound_value(self):
        # The explorer's storm-matrix shape: n=18 over 3 shards.
        assert sharded_synchronous_churn_bound(5.0, 6) == pytest.approx(
            (1.0 - 1.0 / 6.0) / 15.0
        )

    def test_sharded_bound_is_strictly_below_the_classic_cap(self):
        for shard_n in (2, 3, 6, 10, 100):
            assert sharded_synchronous_churn_bound(
                5.0, shard_n
            ) < synchronous_churn_bound(5.0)

    def test_sharded_bound_is_monotone_in_shard_population(self):
        caps = [
            sharded_synchronous_churn_bound(5.0, shard_n)
            for shard_n in range(1, 20)
        ]
        assert caps == sorted(caps)

    def test_sharded_bound_approaches_the_classic_cap(self):
        assert sharded_synchronous_churn_bound(5.0, 10**6) == pytest.approx(
            synchronous_churn_bound(5.0), rel=1e-5
        )

    def test_single_process_shard_tolerates_no_churn(self):
        assert sharded_synchronous_churn_bound(5.0, 1) == 0.0

    def test_sharded_bound_validation(self):
        with pytest.raises(ChurnError):
            sharded_synchronous_churn_bound(0.0, 6)
        with pytest.raises(ChurnError):
            sharded_synchronous_churn_bound(5.0, 0)
