"""Unit tests for the non-constant churn rate profiles."""

import pytest

from repro.churn.profiles import (
    BurstRate,
    ConstantRate,
    DiurnalRate,
)
from repro.sim.errors import ChurnError
from tests.conftest import make_system


class TestConstantRate:
    def test_same_rate_everywhere(self):
        profile = ConstantRate(0.05)
        assert profile.rate_at(0.0) == 0.05
        assert profile.rate_at(1e6) == 0.05

    def test_validation(self):
        with pytest.raises(ChurnError):
            ConstantRate(1.0)
        with pytest.raises(ChurnError):
            ConstantRate(-0.1)


class TestBurstRate:
    def _profile(self):
        return BurstRate(
            base_rate=0.01,
            burst_rate=0.2,
            period=50.0,
            burst_length=10.0,
            first_burst=100.0,
        )

    def test_quiet_before_first_burst(self):
        assert self._profile().rate_at(99.9) == 0.01

    def test_bursting_inside_window(self):
        profile = self._profile()
        assert profile.rate_at(100.0) == 0.2
        assert profile.rate_at(109.9) == 0.2

    def test_quiet_between_bursts(self):
        profile = self._profile()
        assert profile.rate_at(110.0) == 0.01
        assert profile.rate_at(149.9) == 0.01

    def test_bursts_repeat(self):
        profile = self._profile()
        assert profile.rate_at(150.0) == 0.2
        assert profile.rate_at(205.0) == 0.2

    def test_long_run_average(self):
        profile = self._profile()
        expected = 0.2 * 0.2 + 0.01 * 0.8  # duty cycle 10/50
        assert profile.long_run_average() == pytest.approx(expected)
        measured = sum(profile.rate_at(100.0 + t) for t in range(50 * 20)) / (50 * 20)
        assert measured == pytest.approx(expected, rel=0.05)

    def test_validation(self):
        with pytest.raises(ChurnError):
            BurstRate(0.3, 0.2, 50.0, 10.0)  # burst below base
        with pytest.raises(ChurnError):
            BurstRate(0.01, 0.2, 50.0, 60.0)  # burst longer than period


class TestDiurnalRate:
    def test_oscillates_around_base(self):
        profile = DiurnalRate(base_rate=0.1, amplitude=0.05, period=100.0)
        assert profile.rate_at(25.0) == pytest.approx(0.15)  # sin peak
        assert profile.rate_at(75.0) == pytest.approx(0.05)  # sin trough
        assert profile.rate_at(0.0) == pytest.approx(0.1)

    def test_clipped_at_zero(self):
        profile = DiurnalRate(base_rate=0.02, amplitude=0.5, period=100.0)
        assert profile.rate_at(75.0) == 0.0

    def test_validation(self):
        with pytest.raises(ChurnError):
            DiurnalRate(1.0, 0.1, 100.0)
        with pytest.raises(ChurnError):
            DiurnalRate(0.1, -0.1, 100.0)


class TestProfileDrivenController:
    def test_profile_overrides_constant_rate(self):
        system = make_system(n=20)
        profile = BurstRate(
            base_rate=0.0, burst_rate=0.1, period=40.0, burst_length=10.0,
            first_burst=10.0,
        )
        controller = system.attach_churn(profile=profile)
        system.run_until(30.0)
        # Churn only in [10, 20): 0.1 * 20 = 2 refreshes per tick * 10.
        assert controller.leaves_executed == 20
        assert len(system.membership) == 20

    def test_burst_profile_executes_burst_quota(self):
        system = make_system(n=20)
        profile = BurstRate(
            base_rate=0.0, burst_rate=0.25, period=40.0, burst_length=4.0,
            first_burst=10.0,
        )
        controller = system.attach_churn(profile=profile)
        system.run_until(20.0)
        assert controller.leaves_executed == 20  # 5/tick × 4 ticks

    def test_fractional_profile_rates_carry(self):
        system = make_system(n=10)
        controller = system.attach_churn(profile=ConstantRate(0.05))  # 0.5/tick
        system.run_until(40.0)
        assert controller.leaves_executed == 20
